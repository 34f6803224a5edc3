// Telemetry registry for the scan-grid runtime.
//
// Three instrument kinds, mirroring what a production metrics endpoint would
// export:
//
//   Counter       — monotonic event count, lock-free (atomic increments from
//                   any thread: samples produced, ring stalls, drops...).
//   Gauge         — latest value of a quantity (queue depth, active workers).
//   ValueHistogram— fixed-bin histogram + Welford rollup of an observed
//                   value (per-measure latency, decoded voltage). Mutexed:
//                   observation is a handful of arithmetic ops, contention
//                   is negligible next to a site simulation.
//
// Plus per-site OnlineStats rollups (SiteRollup), unlocked: each site's
// slot is written by the site's owning worker only.
//
// The registry is the naming/ownership layer: instruments are created on
// first use, live as long as the registry, and snapshot together into text
// or CSV (util::CsvTable) for periodic export.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "stats/online_stats.h"
#include "util/csv.h"

namespace psnt::grid {

class Counter {
 public:
  void increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

class ValueHistogram {
 public:
  ValueHistogram(double lo, double hi, std::size_t bins);

  void observe(double x);
  // Batched observe: one lock for the whole span. Grid workers publish per
  // site batch (dozens of samples), where a lock per value is measurable.
  void observe_span(const double* xs, std::size_t n);

  // Consistent copies taken under the lock.
  [[nodiscard]] stats::OnlineStats stats() const;
  [[nodiscard]] stats::Histogram histogram() const;
  [[nodiscard]] double quantile(double q) const;

 private:
  mutable std::mutex mutex_;
  stats::Histogram histogram_;
  stats::OnlineStats stats_;
};

// Per-site Welford rollups. Not locked: each site's slot is written by the
// site's owning worker (one writer per slot; distinct slots may be written
// concurrently) and read after the run completes.
class SiteRollup {
 public:
  explicit SiteRollup(std::size_t site_count) : sites_(site_count) {}

  void add(std::size_t site, double x) { sites_.at(site).add(x); }
  // Adds xs[0..n) to one site (stats::OnlineStats::add_span): the slot is
  // written once per span, not once per value — neighbouring slots share
  // cache lines and belong to different workers.
  void add_span(std::size_t site, const double* xs, std::size_t n);
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] const stats::OnlineStats& site(std::size_t i) const {
    return sites_.at(i);
  }
  // Cross-site merge (parallel Welford combine).
  [[nodiscard]] stats::OnlineStats merged() const;

 private:
  std::vector<stats::OnlineStats> sites_;
};

class TelemetryRegistry {
 public:
  // Instruments are created on first use and are stable for the registry's
  // lifetime; concurrent lookups are safe.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  ValueHistogram& histogram(const std::string& name, double lo, double hi,
                            std::size_t bins);
  SiteRollup& site_rollup(const std::string& name, std::size_t site_count);

  // Snapshot exports. Counters/gauges: name,value. Histograms:
  // name,count,mean,stddev,min,max,p50,p95,p99. Site rollups: one row per
  // (rollup, site): name,site,count,mean,stddev,min,max.
  [[nodiscard]] util::CsvTable counters_table() const;
  [[nodiscard]] util::CsvTable histograms_table() const;
  [[nodiscard]] util::CsvTable site_rollups_table() const;

  // Human-readable dump of every instrument.
  void write_text(std::ostream& os) const;
  // All three tables concatenated (blank-line separated) as CSV.
  void write_csv(std::ostream& os) const;
  // Convenience: write_csv to a file path; returns false on I/O failure.
  bool export_csv(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<ValueHistogram>> histograms_;
  std::map<std::string, std::unique_ptr<SiteRollup>> rollups_;
};

}  // namespace psnt::grid
