// Always-on telemetry serving layer: a bounded-memory, queryable in-memory
// time-series store over the scan-grid's streaming drain (DESIGN.md §13).
//
// The grid's workers decode their raw thermometer words themselves; before
// this layer the only consumers were a result matrix and a CSV dump.
// TelemetryStore closes the serving loop: the grid's drain (its store lane)
// ingests every published sample and queries answer *while ingest runs* —
// latest per-site readings, windowed rollups, global voltage/latency
// quantiles, the top-K worst-droop sites, and the resilience degradation
// status.
//
// Memory model — bounded by the sketch configs, flat over run length:
//   * per site: one WindowRing (ring of `windows` OnlineStats + sketch
//     slots) + a latest-reading record + counters;
//   * per shard: global voltage/latency HistogramSketches, OnlineStats,
//     a TopKDroop tracker over the shard's sites and three bucket-index
//     caches (window, voltage, latency);
//   * every HistogramSketch stores only its occupied bucket range, inline up
//     to HistogramSketch::kInlineBuckets and on the heap beyond, never more
//     than its config's `bucket_count` buckets. So the bound is the dense
//     one (sites × windows × window.sketch.bucket_count buckets, plus the
//     shard sketches), while a typical grid window of ~9 readings stores
//     10–25 buckets in place of 160;
//   * nothing grows with run length — hours of ingest hold the same RSS as
//     seconds (bench_serve_soak gates this).
//
// Cost model — ingest and publish scale with the samples ingested, not with
// the sketch bucket counts:
//   * a record costs one window slot update (rotation resets the slot's
//     range, not 160 buckets), three bucket lookups (cache hits for the few
//     decoded bin values a grid produces and its per-batch latencies),
//     three Welford updates and a top-k check;
//   * a publish copies each dirty site's window ring as one flat block (the
//     slot sketches hold their ranges inline) and shares every clean site;
//   * steady-state ingest allocates nothing until a window range first
//     outgrows its inline room: on the 256 × 2048 grid stream that is ~1 in
//     1000 records, each slot at most a few times over its life. Each publish
//     allocates ~30 times (the snapshot, its site pointer vector, the shard
//     sketches' heap ranges, two objects per dirty site), about 0.03 per
//     record at publish_every = 1024;
//   * bench_serve_soak's store_lane section times this lane: 256 sites ×
//     2048 samples of a real grid run, ingested in grid order 256 records
//     per ingest_span, publishes included — 82–99 ns/record against 193–232
//     with dense sketches and per-record ingest (4-vCPU Xeon 2.1 GHz,
//     gcc 12.2, Release, interleaved runs).
//
// Concurrency model — sharded single-writer ingest, snapshot reads:
//   * Sites are partitioned round-robin (site % shards), matching the
//     grid's own sharding. ingest() for a site may only be called by the
//     thread that owns its shard; the ingest hot path touches exclusively
//     shard-local state plus one relaxed atomic mirror of the ingest count
//     (stored once per run of same-site records), so shards never contend.
//   * Every `publish_every` ingests (and on publish()/publish_all()) a
//     shard publishes an immutable ShardSnapshot, copy-on-write per site:
//     ingest marks its site dirty, and publish builds a fresh immutable
//     SiteSnapshot only for the dirty sites; every clean site shares the
//     object of an earlier publish. The shard sketches, stats and top-k
//     are copied whole. On the 256-site grid_monitor deployment a publish
//     rebuilds ~11 sites instead of 256: the traced publish fell from
//     ~600–690 µs to ~36–52 µs (DESIGN.md §13).
//     The first publish builds every site, so never-ingested sites appear
//     with latest.seq == 0.
//   * The snapshot slot is a shared_ptr guarded by a per-shard mutex held
//     only for the pointer assignment/copy — never while building a
//     snapshot or answering a query — so readers
//     (QueryEngine) never observe a torn state, can keep a snapshot alive
//     as long as they like while the writer keeps publishing, and the
//     ingest hot path touches the mutex only at publish boundaries. (A
//     std::atomic<shared_ptr> slot would avoid even that, but libstdc++'s
//     implementation unlocks its reader-side spinlock with a relaxed RMW,
//     which TSan rightly reports — the mutex is the portable, provably
//     clean spelling.) The grid's drain is the sole writer in the
//     scan-grid deployment (shards = 1); the soak bench drives one writer
//     thread per shard.
//   * Degradation status is a bank of relaxed atomics any thread may
//     set/read (the drain mirrors the grid.fault.* telemetry counters into
//     it each sweep).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "serve/histogram_sketch.h"
#include "serve/rollup_window.h"
#include "serve/topk.h"
#include "stats/online_stats.h"
#include "util/units.h"

namespace psnt::serve {

struct StoreConfig {
  // Number of monitored sites; per-site state is allocated up front.
  std::size_t site_count = 1;
  // Concurrent ingest lanes; site s belongs to shard s % shards.
  std::size_t shards = 1;
  // Droop reference: droop = v_nominal − measured volts.
  double v_nominal = 1.0;
  // Per-site windowed rollups (width, ring depth, per-window sketch).
  WindowConfig window{Picoseconds{50000.0}, 8,
                      SketchConfig{0.005, 0.5, 160}};
  // Global (per-shard, merged at query time) distribution sketches.
  SketchConfig voltage_sketch{0.005, 0.5, 160};  // volts, ~0.5–2.4 V
  SketchConfig latency_sketch{0.025, 0.01, 288};  // µs, ~10 ns–1.3 s
  // Worst-droop leaderboard size.
  std::size_t top_k = 8;
  // Ingests per shard between automatic snapshot publications.
  std::size_t publish_every = 1024;
};

// One sample handed to the store by the drain.
struct IngestRecord {
  std::uint32_t site = 0;
  Picoseconds timestamp{0.0};  // sample (simulation) time
  double volts = 0.0;          // decoded estimate (bin midpoint / edge)
  double latency_us = 0.0;     // producer-side measure wall time
  bool in_range = true;        // decoded bin was closed (not saturated)
  bool valid = true;           // false: sample lost (fault/drop), no volts
};

// Mirror of the grid's resilience telemetry (grid.fault.*, grid.retries,
// ...), refreshed by the drain; all-zero when chaos is off.
struct DegradationStatus {
  std::uint64_t faults_injected = 0;
  std::uint64_t retries = 0;
  std::uint64_t samples_recovered = 0;
  std::uint64_t samples_lost = 0;
  std::uint64_t samples_dropped = 0;
  std::uint64_t sites_quarantined = 0;
};

// Latest accepted reading of one site.
struct SiteLatest {
  std::uint64_t seq = 0;  // 1-based ingest ordinal within the site
  Picoseconds timestamp{0.0};
  double volts = 0.0;
  bool in_range = false;
};

// Immutable per-site view inside a ShardSnapshot.
struct SiteSnapshot {
  std::uint32_t site = 0;
  SiteLatest latest;
  std::uint64_t ingested = 0;
  std::uint64_t out_of_range = 0;
  std::uint64_t invalid = 0;
  std::uint64_t latest_epoch = WindowSlot::kNoEpoch;
  std::vector<WindowSlot> windows;  // ring order (epoch % windows)
};

// Immutable copy of one shard's state, published by its writer.
struct ShardSnapshot {
  std::uint64_t seq = 0;  // shard ingests at publish time
  HistogramSketch voltage;
  HistogramSketch latency;
  stats::OnlineStats voltage_stats;
  stats::OnlineStats latency_stats;
  std::vector<TopKDroop::Entry> top_droop;
  // One per shard site, in shard-local order. A site not ingested since
  // the previous publish shares that publish's object (copy-on-write).
  std::vector<std::shared_ptr<const SiteSnapshot>> sites;
};

// A reader's consistent grab of the whole store: one immutable snapshot per
// shard (null until that shard first publishes) + the degradation mirror.
struct StoreView {
  std::vector<std::shared_ptr<const ShardSnapshot>> shards;
  DegradationStatus degradation;
  std::uint64_t ingested = 0;  // live total at grab time (may lead shards)
};

class TelemetryStore {
 public:
  explicit TelemetryStore(const StoreConfig& config);
  ~TelemetryStore();

  TelemetryStore(const TelemetryStore&) = delete;
  TelemetryStore& operator=(const TelemetryStore&) = delete;

  [[nodiscard]] const StoreConfig& config() const { return config_; }
  [[nodiscard]] std::size_t shard_of(std::uint32_t site) const {
    return site % config_.shards;
  }

  // Single writer per shard: the caller must guarantee only one thread
  // ingests sites of a given shard (the grid's store lane; one soak thread
  // per shard). Auto-publishes every `publish_every` ingests.
  //
  // ingest_span() is the one ingest body; ingest() is a one-record span.
  // A span is cut into runs of consecutive same-site records, and each run
  // is cut again at its shard's publish boundaries, so a span publishes
  // exactly the snapshots that per-record ingest() calls would. The site
  // lookup, dirty mark, latest reading and live-count mirror are paid once
  // per run. A record with an out-of-range site throws; the records before
  // it stay ingested, it and the records after it are not.
  void ingest(const IngestRecord& record);
  void ingest_span(const IngestRecord* records, std::size_t n);

  // Thread-safe ingest for writers that cannot honor the single-writer-per-
  // shard contract — the fleet's aggregator threads, whose thread↔connection
  // mapping is independent of the store's site↔shard mapping. Same effect as
  // ingest_span() with the run's shard mutex held for each run; zero cost to
  // the lock-free paths (per deployment a shard is driven through exactly
  // one of the two forms).
  void ingest_span_locked(const IngestRecord* records, std::size_t n);

  // Snapshot publication. publish(shard) must be called by that shard's
  // writer; publish_all() by a single thread after writers quiesce (the
  // grid calls it once the drain completes).
  void publish(std::size_t shard);
  void publish_all();

  // Reader side, any thread, never blocks ingest.
  [[nodiscard]] StoreView snapshot() const;

  // Degradation mirror: any thread.
  void set_degradation(const DegradationStatus& status);
  [[nodiscard]] DegradationStatus degradation() const;

  // Live counters (relaxed atomics, any thread).
  [[nodiscard]] std::uint64_t total_ingested() const;
  [[nodiscard]] std::uint64_t publishes() const;

 private:
  struct Shard;

  // Ingests the leading run of records[0..n) (see ingest_span) and returns
  // its length, at least 1.
  std::size_t ingest_run(const IngestRecord* records, std::size_t n);

  StoreConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> deg_faults_{0};
  std::atomic<std::uint64_t> deg_retries_{0};
  std::atomic<std::uint64_t> deg_recovered_{0};
  std::atomic<std::uint64_t> deg_lost_{0};
  std::atomic<std::uint64_t> deg_dropped_{0};
  std::atomic<std::uint64_t> deg_quarantined_{0};
};

}  // namespace psnt::serve
