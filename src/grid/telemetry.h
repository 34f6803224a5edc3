// Telemetry registry for the scan-grid runtime.
//
// Two instrument kinds, both lock-free on the update path:
//
//   Counter — monotonic event count (atomic increments from any thread:
//             samples produced, ring stalls, drops, fault lanes...).
//   Gauge   — latest value of a quantity (ring depth).
//
// The registry counts what the runtime does; it holds no per-sample values.
// Voltage and latency distributions, per-site rollups and the worst-droop
// leaderboard live in the serve::TelemetryStore the grid's store lane feeds
// (ScanGridConfig::store), and are read through serve::QueryEngine.
//
// The registry is the naming/ownership layer: instruments are created on
// first use, live as long as the registry, and snapshot together into one
// table (name, value) or its text dump.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

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

class TelemetryRegistry {
 public:
  // Instruments are created on first use and are stable for the registry's
  // lifetime; concurrent lookups are safe.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);

  // Snapshot: one (metric, value) row per counter, then per gauge, each
  // group sorted by name.
  [[nodiscard]] util::CsvTable counters_table() const;

  // Human-readable dump of every instrument.
  void write_text(std::ostream& os) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
};

}  // namespace psnt::grid
