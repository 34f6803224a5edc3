#include "serve/store.h"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "util/error.h"

namespace psnt::serve {

namespace {
constexpr std::size_t kCacheLine = 64;
}  // namespace

// Writer-exclusive state of one ingest lane plus its published snapshot.
// Heap-allocated and cache-line aligned so lanes never false-share.
struct alignas(kCacheLine) TelemetryStore::Shard {
  // --- writer-only (the shard's single ingest thread) -------------------
  struct SiteState {
    SiteLatest latest;
    std::uint64_t ingested = 0;
    std::uint64_t out_of_range = 0;
    std::uint64_t invalid = 0;
    WindowRing windows;
    // The site changed since the last publication and is listed in
    // `dirty`. Sites start dirty, so the first publish covers sites that
    // were never ingested.
    bool dirty = true;

    explicit SiteState(const WindowConfig& config) : windows(config) {}
  };

  std::vector<std::uint32_t> site_ids;  // global ids, ascending
  std::vector<SiteState> sites;         // parallel to site_ids
  HistogramSketch voltage;
  HistogramSketch latency;
  // bucket_index() memos for the window, voltage and latency sketches.
  BucketIndexCache window_buckets;
  BucketIndexCache voltage_buckets;
  BucketIndexCache latency_buckets;
  stats::OnlineStats voltage_stats;
  stats::OnlineStats latency_stats;
  TopKDroop top_droop;
  std::uint64_t ingested = 0;
  std::size_t until_publish = 0;
  // Shard-local indices of the dirty sites; capacity sites.size(), so
  // ingest never allocates. Declared after the per-ingest counters so
  // that `ingested` and `until_publish` stay off the cache line that
  // readers lock in snapshot().
  std::vector<std::uint32_t> dirty;
  // The newest immutable snapshot of every site, parallel to site_ids.
  // Each publish copies this pointer vector, so clean sites are shared
  // with earlier publications instead of rebuilt.
  std::vector<std::shared_ptr<const SiteSnapshot>> site_snaps;

  // --- shared ----------------------------------------------------------
  // Live mirror of `ingested` (relaxed store per ingest, read anywhere).
  std::atomic<std::uint64_t> ingested_mirror{0};
  // Snapshot slot: the writer swaps in immutable snapshots, readers copy
  // the pointer. The mutex guards only that assignment/copy.
  mutable std::mutex snap_mutex;
  std::shared_ptr<const ShardSnapshot> published;
  // Serializes ingest_span_locked() callers; untouched by the lock-free
  // ingest paths (one entry point per shard per deployment).
  std::mutex ingest_mutex;

  Shard(const StoreConfig& config, std::size_t shard_index)
      : voltage(config.voltage_sketch),
        latency(config.latency_sketch),
        window_buckets(config.window.sketch),
        voltage_buckets(config.voltage_sketch),
        latency_buckets(config.latency_sketch),
        top_droop(config.site_count, config.top_k),
        until_publish(config.publish_every) {
    for (std::uint32_t site = static_cast<std::uint32_t>(shard_index);
         site < config.site_count;
         site += static_cast<std::uint32_t>(config.shards)) {
      site_ids.push_back(site);
      sites.emplace_back(config.window);
    }
    dirty.resize(sites.size());
    std::iota(dirty.begin(), dirty.end(), 0u);
    site_snaps.resize(sites.size());
  }

  [[nodiscard]] static std::uint32_t local_index(std::uint32_t site,
                                                 std::size_t shards) {
    // Round-robin partition: the shard's k-th site is shard + k·shards.
    return static_cast<std::uint32_t>(site / shards);
  }
};

TelemetryStore::TelemetryStore(const StoreConfig& config) : config_(config) {
  PSNT_CHECK(config_.site_count > 0, "store needs at least one site");
  PSNT_CHECK(config_.shards > 0, "store needs at least one shard");
  PSNT_CHECK(config_.top_k > 0, "store needs top_k >= 1");
  config_.shards = std::min(config_.shards, config_.site_count);
  if (config_.publish_every == 0) config_.publish_every = 1;
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(config_, s));
  }
}

TelemetryStore::~TelemetryStore() = default;

void TelemetryStore::ingest(const IngestRecord& record) {
  ingest_span(&record, 1);
}

void TelemetryStore::ingest_span(const IngestRecord* records, std::size_t n) {
  for (std::size_t i = 0; i < n;) i += ingest_run(records + i, n - i);
}

void TelemetryStore::ingest_span_locked(const IngestRecord* records,
                                        std::size_t n) {
  for (std::size_t i = 0; i < n;) {
    PSNT_CHECK(records[i].site < config_.site_count,
               "ingest site out of range");
    Shard& shard = *shards_[shard_of(records[i].site)];
    const std::lock_guard<std::mutex> guard(shard.ingest_mutex);
    i += ingest_run(records + i, n - i);
  }
}

std::size_t TelemetryStore::ingest_run(const IngestRecord* records,
                                       std::size_t n) {
  const std::uint32_t site_id = records[0].site;
  PSNT_CHECK(site_id < config_.site_count, "ingest site out of range");
  const std::size_t shard_index = shard_of(site_id);
  Shard& shard = *shards_[shard_index];
  const std::uint32_t index = Shard::local_index(site_id, config_.shards);
  Shard::SiteState& site = shard.sites[index];
  if (!site.dirty) {
    site.dirty = true;
    shard.dirty.push_back(index);
  }

  // The run: this site's records up to the next one of another site or the
  // shard's publish boundary, whichever comes first. Per-record state is
  // the windows, the shard sketches/stats and the top-k; the site's latest
  // reading is the run's last valid record. Sketch buckets come from the
  // shard's bucket-index caches.
  const std::size_t limit = std::min(n, shard.until_publish);
  const double v_nominal = config_.v_nominal;
  const IngestRecord* last_valid = nullptr;
  std::size_t k = 0;
  do {
    const IngestRecord& rec = records[k];
    if (!rec.valid) {
      ++site.invalid;
    } else {
      last_valid = &rec;
      const double v = rec.volts;
      if (!rec.in_range) ++site.out_of_range;
      const bool positive = v > 0.0;  // bucket_index needs v > 0
      site.windows.add(rec.timestamp, v,
                       positive ? shard.window_buckets.index(v) : 0);
      shard.voltage.add(v, positive ? shard.voltage_buckets.index(v) : 0);
      shard.voltage_stats.add(v);
      shard.top_droop.update(site_id, v_nominal - v);
    }
    const double lat = rec.latency_us;
    shard.latency.add(lat, lat > 0.0 ? shard.latency_buckets.index(lat) : 0);
    shard.latency_stats.add(lat);
  } while (++k < limit && records[k].site == site_id);

  if (last_valid != nullptr) {
    site.latest.seq =
        site.ingested + static_cast<std::uint64_t>(last_valid - records) + 1;
    site.latest.timestamp = last_valid->timestamp;
    site.latest.volts = last_valid->volts;
    site.latest.in_range = last_valid->in_range;
  }
  site.ingested += k;
  shard.ingested += k;
  shard.ingested_mirror.store(shard.ingested, std::memory_order_relaxed);

  shard.until_publish -= k;
  if (shard.until_publish == 0) {
    shard.until_publish = config_.publish_every;
    publish(shard_index);
  }
  return k;
}

void TelemetryStore::publish(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  auto snap = std::make_shared<ShardSnapshot>();
  snap->seq = shard.ingested;
  snap->voltage = shard.voltage;
  snap->latency = shard.latency;
  snap->voltage_stats = shard.voltage_stats;
  snap->latency_stats = shard.latency_stats;
  snap->top_droop = shard.top_droop.top();
  // Copy-on-write: rebuild only the sites ingested since the last publish;
  // every other site keeps sharing its earlier immutable snapshot.
  for (const std::uint32_t index : shard.dirty) {
    Shard::SiteState& s = shard.sites[index];
    s.dirty = false;
    auto site = std::make_shared<SiteSnapshot>();
    site->site = shard.site_ids[index];
    site->latest = s.latest;
    site->ingested = s.ingested;
    site->out_of_range = s.out_of_range;
    site->invalid = s.invalid;
    site->latest_epoch = s.windows.latest_epoch();
    site->windows = s.windows.slots();
    shard.site_snaps[index] = std::move(site);
  }
  shard.dirty.clear();
  snap->sites = shard.site_snaps;
  {
    const std::lock_guard<std::mutex> guard(shard.snap_mutex);
    shard.published = std::move(snap);
  }
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

void TelemetryStore::publish_all() {
  for (std::size_t s = 0; s < shards_.size(); ++s) publish(s);
}

StoreView TelemetryStore::snapshot() const {
  StoreView view;
  view.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    {
      const std::lock_guard<std::mutex> guard(shard->snap_mutex);
      view.shards.push_back(shard->published);
    }
    view.ingested += shard->ingested_mirror.load(std::memory_order_relaxed);
  }
  view.degradation = degradation();
  return view;
}

void TelemetryStore::set_degradation(const DegradationStatus& status) {
  deg_faults_.store(status.faults_injected, std::memory_order_relaxed);
  deg_retries_.store(status.retries, std::memory_order_relaxed);
  deg_recovered_.store(status.samples_recovered, std::memory_order_relaxed);
  deg_lost_.store(status.samples_lost, std::memory_order_relaxed);
  deg_dropped_.store(status.samples_dropped, std::memory_order_relaxed);
  deg_quarantined_.store(status.sites_quarantined, std::memory_order_relaxed);
}

DegradationStatus TelemetryStore::degradation() const {
  DegradationStatus status;
  status.faults_injected = deg_faults_.load(std::memory_order_relaxed);
  status.retries = deg_retries_.load(std::memory_order_relaxed);
  status.samples_recovered = deg_recovered_.load(std::memory_order_relaxed);
  status.samples_lost = deg_lost_.load(std::memory_order_relaxed);
  status.samples_dropped = deg_dropped_.load(std::memory_order_relaxed);
  status.sites_quarantined = deg_quarantined_.load(std::memory_order_relaxed);
  return status;
}

std::uint64_t TelemetryStore::total_ingested() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->ingested_mirror.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t TelemetryStore::publishes() const {
  return publishes_.load(std::memory_order_relaxed);
}

}  // namespace psnt::serve
