#include "grid/scan_grid.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <thread>

#include "calib/fit.h"
#include "fault/fault_session.h"
#include "grid/spsc_ring.h"
#include "net/remote_engine.h"
#include "grid/thread_pool.h"
#include "serve/store.h"
#include "util/error.h"

namespace psnt::grid {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

struct ScanGrid::Site {
  std::uint32_t id = 0;
  std::uint32_t index = 0;
  std::unique_ptr<analog::RailSource> vdd;
  std::unique_ptr<analog::RailSource> gnd;  // may be null (ideal ground)

  // The site's measurement backend. Behavioral engines are built by the grid
  // constructor in site order (so calibration and code-policy resolution are
  // deterministic); structural engines are built lazily on the owning worker
  // thread so the whole netlist stays thread-confined.
  core::EngineHandle engine;
  // Binds the grid's FaultInjector to this engine's context — the one
  // fault↔engine coupling. Declared after `engine`: destroyed first, so the
  // hook detaches before the context it points into goes away.
  std::unique_ptr<fault::FaultSession> fault_session;

  // --- degradation accounting (idle unless the chaos path runs) ---------
  bool quarantined = false;
  std::uint32_t quarantine_sample = 0;
  std::uint32_t fail_streak = 0;  // consecutive lost samples
  std::uint64_t retries = 0;
  std::uint64_t recovered = 0;
  std::uint64_t lost = 0;
  std::uint64_t vote_overrides = 0;
  std::vector<fault::FaultEvent> trace;

  // The site's row of the result matrix, written only by the owning worker
  // (grown batch by batch) and moved into RunResult after the pool joins.
  SiteResult row;
};

// Plain per-shard event tallies. The shard's worker adds to them while it
// runs a site batch and flush_tally() moves them into the registry's atomic
// counters once at the end of that batch, so the per-sample loops touch no
// state shared with other workers.
struct ScanGrid::Tally {
  std::uint64_t produced = 0;
  std::uint64_t stalls = 0;
  std::uint64_t drops = 0;
  // --- chaos loop only ---------------------------------------------------
  std::uint64_t injected = 0;
  std::uint64_t retries = 0;
  std::uint64_t recovered = 0;
  std::uint64_t lost = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t vote_overrides = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t backoff_us = 0;
  std::array<std::uint64_t, fault::kFaultKindCount> by_kind{};
};

struct ScanGrid::Shard {
  std::size_t index = 0;
  std::vector<Site*> sites;
  // Decoded readings on their way to the store lane. The record is the
  // store's own ingest record; the drain hands it over unchanged.
  SpscRing<serve::IngestRecord> ring;
  // The shard's ENC block (Fig. 6: one encoder per replicated sensor
  // system). Its running tallies are summed into grid.enc.* after the run.
  core::StreamingEncoder enc;
  Tally tally;
  // Per-batch buffers, reused across batches. Touched only by the shard's
  // single worker thread. raws/words/codes/bins/records are parallel arrays
  // indexed by the batch's published samples.
  std::vector<core::RawSample> raws;
  std::vector<core::ThermoWord> words;
  std::vector<core::DelayCode> codes;
  std::vector<core::VoltageBin> bins;
  std::vector<core::EncodedWord> encoded;
  std::vector<serve::IngestRecord> records;
  std::vector<std::uint32_t> forced_pushes;  // chaos: ring-storm pushes
  // Chaos vote scratch for one sample, reused across samples.
  std::vector<core::RawSample> vote_raws;
  std::vector<core::ThermoWord> vote_words;
  std::atomic<bool> done{false};

  Shard(std::size_t ring_capacity, core::BubblePolicy bubble_policy)
      : ring(ring_capacity), enc(bubble_policy) {}
};

namespace {

using RecordRing = SpscRing<serve::IngestRecord>;

// Producer-side backpressure for one batch: one try_push_span call moves the
// whole batch through two atomics when the ring has room; the remainder (a
// full ring) either blocks — yield and retry, one stall counted per yield —
// or, under kDropNewest, is dropped with every lost sample counted.
// `produced` counts every sample offered. Returns how many records the ring
// accepted: all `n`, or under kDropNewest the prefix that fit.
std::size_t push_span_with_backpressure(BackpressurePolicy policy,
                                        RecordRing& ring,
                                        serve::IngestRecord* records,
                                        std::size_t n, std::uint64_t& stalls,
                                        std::uint64_t& drops,
                                        std::uint64_t& produced) {
  produced += n;
  std::size_t done = ring.try_push_span(records, n);
  while (done < n) {
    if (policy == BackpressurePolicy::kBlockProducer) {
      ++stalls;
      std::this_thread::yield();
      done += ring.try_push_span(records + done, n - done);
    } else {
      drops += n - done;
      break;
    }
  }
  return done;
}

// Adds `n` to `counter` unless there is nothing to add: most tallies of a
// batch are zero, and a zero add would still be an atomic RMW on a line
// every worker shares.
void add_nonzero(Counter* counter, std::uint64_t n) {
  if (n != 0) counter->increment(n);
}

}  // namespace

ScanGrid::ScanGrid(const scan::Floorplan& floorplan, ScanGridConfig config,
                   RailFactory vdd_factory, RailFactory gnd_factory)
    : floorplan_(floorplan), config_(config) {
  PSNT_CHECK(floorplan.site_count() > 0, "grid needs at least one site");
  PSNT_CHECK(config_.samples_per_site > 0, "need at least one sample");
  PSNT_CHECK(config_.interval.value() > 0.0, "sample interval must advance");
  PSNT_CHECK(vdd_factory != nullptr, "a vdd RailFactory is required");
  PSNT_CHECK(config_.resilience.votes >= 1 &&
                 config_.resilience.votes % 2 == 1,
             "resilience votes must be odd (majority needs a tiebreak)");
  PSNT_CHECK(config_.fidelity == SiteFidelity::kBehavioral ||
                 config_.resilience.votes == 1,
             "majority voting requires the behavioral fidelity");
  if (config_.threads == 0) config_.threads = 1;
  if (config_.batch == 0) config_.batch = 1;
  if (config_.store) {
    PSNT_CHECK(config_.store->config().site_count >= floorplan.site_count(),
               "serve store is sized for fewer sites than the floorplan");
    PSNT_CHECK(config_.store->config().shards == 1,
               "the grid drain is a single writer; use a 1-shard store");
  }
  chaos_ = config_.injector != nullptr || config_.resilience.enabled();

  // Resolve the hot-path instruments once: counter() takes a std::string
  // and these names overflow SSO, so looking them up per site batch was the
  // measure loop's residual allocation source.
  hot_.stalls = &telemetry_.counter("grid.ring_stalls");
  hot_.drops = &telemetry_.counter("grid.samples_dropped");
  hot_.produced = &telemetry_.counter("grid.samples_produced");
  hot_.sim_events = &telemetry_.counter("grid.sim_events");
  hot_.sim_allocs = &telemetry_.counter("grid.sim_allocs");
  hot_.structural_ns = &telemetry_.counter("grid.structural_ns");
  if (chaos_) {
    hot_.injected = &telemetry_.counter("grid.fault.injected");
    hot_.retries = &telemetry_.counter("grid.retries");
    hot_.recovered = &telemetry_.counter("grid.samples_recovered");
    hot_.lost = &telemetry_.counter("grid.samples_lost");
    hot_.quarantined = &telemetry_.counter("grid.sites_quarantined");
    hot_.vote_overrides = &telemetry_.counter("grid.vote_overrides");
    hot_.timeouts = &telemetry_.counter("grid.measure_timeouts");
    hot_.backoff_us = &telemetry_.counter("grid.backoff_us");
    for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
      hot_.by_kind[k] = &telemetry_.counter(
          std::string("grid.fault.") +
          fault::to_string(static_cast<fault::FaultKind>(k)));
    }
  }

  // Force the (thread-safe, but serial) calibration fit before any worker
  // can race to be first through the magic static.
  // Built on the constructor thread, immutable afterwards: every worker
  // decodes against this instead of any engine's mutable kernel cache.
  ladder_ = calib::make_paper_decode_ladder(calib::calibrated().model);

  // Sites are built in floorplan order on the caller thread so every
  // stochastic draw happens in a deterministic sequence per site.
  sites_.reserve(floorplan.site_count());
  for (const auto& record : floorplan.sites()) {
    auto site = std::make_unique<Site>();
    site->id = record.id;
    site->index = static_cast<std::uint32_t>(sites_.size());
    site->row.site_id = record.id;
    auto rng = site_rng(config_.seed, record.id);
    site->vdd = vdd_factory(record, rng);
    PSNT_CHECK(site->vdd != nullptr, "RailFactory returned null vdd rail");
    if (gnd_factory) site->gnd = gnd_factory(record, rng);
    if (config_.fidelity == SiteFidelity::kBehavioral &&
        !config_.engine_factory) {
      ensure_engine(*site);
    }
    sites_.push_back(std::move(site));
  }

  // Cross-site firing-ladder sharing: all behavioral sites wrap the same
  // calibrated array, so the per-code ladder solve (a ~7-bisection pass per
  // kernel, ~10 us) would otherwise be repaid once per site inside run().
  // Solve it once on site 0 for every code and adopt the tables everywhere
  // else; share_sense_ladders fingerprints the array parameters and copies
  // nothing if they differ, so this is amortization only, never a behavior
  // change. All 8 codes, not just the configured one: auto-range steps and
  // code-drift votes sense on other codes, and every single-sample sense
  // goes through the ladder first.
  if (config_.fidelity == SiteFidelity::kBehavioral &&
      !config_.engine_factory && sites_.size() > 1) {
    core::IMeasureEngine& first = *sites_.front()->engine;
    for (std::uint8_t c = 0; c < core::DelayCode::kCount; ++c) {
      (void)core::prewarm_sense_ladders(first, core::DelayCode{c});
    }
    for (std::size_t i = 1; i < sites_.size(); ++i) {
      (void)core::share_sense_ladders(*sites_[i]->engine, first);
    }
  }

  // Round-robin sharding: shard s owns sites s, s+S, s+2S, ... One worker
  // job per shard keeps the SPSC producer contract.
  const std::size_t shard_count = std::min(config_.threads, sites_.size());
  shards_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>(config_.ring_capacity,
                                         config_.thermometer.bubble_policy);
    shard->index = s;
    for (std::size_t i = s; i < sites_.size(); i += shard_count) {
      shard->sites.push_back(sites_[i].get());
    }
    shards_.push_back(std::move(shard));
  }
}

ScanGrid::~ScanGrid() = default;

stats::Xoshiro256 ScanGrid::site_rng(std::uint64_t seed,
                                     std::uint32_t site_id) {
  // Decorrelate the per-site streams: hash the master seed once, then mix in
  // the site id with the golden-ratio multiplier. Thread-count independent.
  stats::SplitMix64 mix(seed);
  const std::uint64_t base = mix.next();
  return stats::Xoshiro256(
      base ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(site_id) + 1)));
}

Picoseconds ScanGrid::sample_time(std::size_t k) const {
  return Picoseconds{config_.start.value() +
                     static_cast<double>(k) * config_.interval.value()};
}

void ScanGrid::ensure_engine(Site& site) {
  if (site.engine) return;

  core::EngineSiteOptions options;
  options.fault_hooks = config_.injector != nullptr;
  options.code_policy.initial = config_.code;
  options.code_policy.window = config_.code_window;
  options.code_policy.auto_range =
      config_.code_policy == CodePolicy::kAutoRange;

  const analog::RailPair rails{site.vdd.get(), site.gnd.get()};
  const auto& model = calib::calibrated().model;
  // The only fidelity branch in the grid: everything past construction
  // speaks the EngineHandle contract.
  if (config_.engine_factory) {
    site.engine = config_.engine_factory(site.id, rails, options);
    PSNT_CHECK(site.engine != nullptr, "engine_factory returned null engine");
  } else if (config_.fidelity == SiteFidelity::kBehavioral) {
    site.engine = core::make_behavioral_engine(
        calib::make_paper_engine(model, config_.thermometer), rails, options);
  } else {
    site.engine = core::make_structural_engine(
        calib::make_paper_array(model),
        core::PulseGenerator{model.pg_config()}, rails,
        config_.thermometer.control_period, options);
  }
  if (config_.injector) {
    site.fault_session = std::make_unique<fault::FaultSession>(
        config_.injector, site.id, site.engine->context());
  }
}

void ScanGrid::observe_code_policy(Site& site, const core::ThermoWord& word) {
  core::EngineContext& ctx = site.engine->context();
  if (!ctx.auto_ranging()) return;
  ctx.observe(site.engine->encode(word), word.width());
}

void ScanGrid::capture_site_batch(Site& site, std::size_t first,
                                  std::size_t count, Shard& shard) {
  ensure_engine(site);
  core::IMeasureEngine& engine = *site.engine;
  const bool batched = engine.prefers_batch();

  shard.raws.clear();
  const double t0 = now_seconds();
  if (batched) {
    // One backend run for the whole batch — the vectorized behavioral SoA
    // capture or the structural netlist — with no per-word decode inside
    // the capture itself.
    core::MeasureRequest req;
    req.start = sample_time(first);
    engine.measure_raw_batch(req, config_.interval, count, shard.raws);
  } else {
    // Per-sample captures so auto-range feedback sees every word before the
    // next PREPARE — the same trim sequence a serial measure/observe loop
    // walks, hence the bit-identity guarantee extends to auto-ranged sites.
    shard.raws.reserve(count);
    for (std::size_t k = first; k < first + count; ++k) {
      core::MeasureRequest req;
      req.start = sample_time(k);
      shard.raws.push_back(engine.measure_raw(req));
      observe_code_policy(site, shard.raws.back().word);
    }
  }
  const double batch_seconds = now_seconds() - t0;
  if (batched) {
    const core::EngineBatchStats stats = engine.take_batch_stats();
    if (stats.sim_events > 0) {
      hot_.sim_events->increment(stats.sim_events);
      hot_.sim_allocs->increment(stats.sim_allocs);
      // Worker-side simulation time (excludes ring/aggregator); the perf
      // bench derives its ns-per-structural-measure from this. Guarded so
      // vectorized behavioral batches (zero sim events) don't dilute it.
      hot_.structural_ns->increment(
          static_cast<std::uint64_t>(batch_seconds * 1e9));
    }
  }

  const double per_sample_us =
      batch_seconds * 1e6 / static_cast<double>(count);
  decode_batch(shard);
  const std::size_t n = shard.raws.size();
  shard.records.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    shard.raws[k].sample_index = static_cast<std::uint32_t>(first + k);
    fill_record(site, shard, k, per_sample_us);
  }
  // Under kDropNewest the ring may take only a prefix; the dropped tail
  // never reaches the matrix and stays invalid.
  Tally& tally = shard.tally;
  const std::size_t accepted = push_span_with_backpressure(
      config_.backpressure, shard.ring, shard.records.data(), n, tally.stalls,
      tally.drops, tally.produced);
  finish_batch(site, shard, accepted, first + count);
  flush_tally(tally);
}

void ScanGrid::decode_batch(Shard& shard) const {
  const std::size_t n = shard.raws.size();
  shard.words.resize(n);
  shard.codes.resize(n);
  shard.bins.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    shard.words[i] = shard.raws[i].word;
    shard.codes[i] = shard.raws[i].code;
  }
  ladder_.decode_span(shard.words.data(), shard.codes.data(), n,
                      shard.bins.data());
}

void ScanGrid::fill_record(const Site& site, Shard& shard, std::size_t i,
                           double wall_us) {
  const core::VoltageBin& bin = shard.bins[i];
  serve::IngestRecord& rec = shard.records[i];
  rec.site = site.index;
  rec.timestamp = shard.raws[i].timestamp;
  rec.volts = bin.estimate().value();
  rec.latency_us = wall_us;
  rec.in_range = bin.in_range();
}

void ScanGrid::finish_batch(Site& site, Shard& shard, std::size_t n,
                            std::size_t batch_end) {
  shard.encoded.resize(n);
  shard.enc.encode_span(shard.words.data(), n,
                        shard.encoded.data());  // grid.enc.* tallies
  std::vector<core::Measurement>& samples = site.row.samples;
  for (std::size_t i = 0; i < n; ++i) {
    const core::RawSample& raw = shard.raws[i];
    // The row grows as samples land (indices ascend): the slots of samples
    // that never arrived are value-initialized and stay invalid.
    samples.resize(raw.sample_index);
    samples.push_back(core::assemble_measurement(raw, shard.bins[i]));
    site.row.valid[raw.sample_index] = true;
  }
  samples.resize(batch_end);
}

void ScanGrid::flush_tally(Tally& tally) const {
  add_nonzero(hot_.produced, tally.produced);
  add_nonzero(hot_.stalls, tally.stalls);
  add_nonzero(hot_.drops, tally.drops);
  if (chaos_) {
    add_nonzero(hot_.injected, tally.injected);
    add_nonzero(hot_.retries, tally.retries);
    add_nonzero(hot_.recovered, tally.recovered);
    add_nonzero(hot_.lost, tally.lost);
    add_nonzero(hot_.quarantined, tally.quarantined);
    add_nonzero(hot_.vote_overrides, tally.vote_overrides);
    add_nonzero(hot_.timeouts, tally.timeouts);
    add_nonzero(hot_.backoff_us, tally.backoff_us);
    for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
      add_nonzero(hot_.by_kind[k], tally.by_kind[k]);
    }
  }
  tally = Tally{};
}

void ScanGrid::record_fault_events(Site& site,
                                   const fault::MeasureFaults& faults,
                                   std::size_t sample, std::uint32_t attempt,
                                   Tally& tally) {
  if (!faults.any()) return;
  const std::size_t before = site.trace.size();
  fault::FaultInjector::append_events(faults, site.id,
                                      static_cast<std::uint32_t>(sample),
                                      attempt, site.trace);
  tally.injected += site.trace.size() - before;
  for (std::size_t i = before; i < site.trace.size(); ++i) {
    ++tally.by_kind[static_cast<std::size_t>(site.trace[i].kind)];
  }
}

namespace {

core::DelayCode drifted_code(core::DelayCode code, std::int32_t delta) {
  const int v = std::clamp(static_cast<int>(code.value()) + delta, 0,
                           static_cast<int>(core::DelayCode::kCount) - 1);
  return core::DelayCode{static_cast<std::uint8_t>(v)};
}

// Deterministic-outcome backoff: the sleep affects wall time only, never
// which faults strike next (those re-roll off the attempt index).
void apply_backoff(const ResiliencePolicy& policy, std::size_t attempt,
                   std::uint64_t& backoff_us) {
  const std::uint32_t us = bounded_backoff_us(policy, attempt);
  if (us == 0) return;
  backoff_us += us;
  std::this_thread::sleep_for(std::chrono::microseconds(us));
}

}  // namespace

bool ScanGrid::chaos_measure(Site& site, std::size_t sample, Shard& shard,
                             core::RawSample& out,
                             std::uint32_t& forced_stall_pushes) {
  const ResiliencePolicy& policy = config_.resilience;
  core::IMeasureEngine& engine = *site.engine;
  Tally& tally = shard.tally;
  // Voting re-measures the sample; engines that cannot (the live netlist)
  // run a single vote. Retrying a measure re-measures either way, exactly
  // as silicon would.
  const std::size_t votes =
      engine.supports_voting() ? std::max<std::size_t>(1, policy.votes) : 1;
  const std::size_t attempts_per_vote = policy.max_retries + 1;
  const std::size_t width = engine.word_bits();

  std::vector<core::RawSample>& vote_raws = shard.vote_raws;
  vote_raws.clear();
  bool needed_retry = false;
  // A failed attempt is retried, after the backoff, unless it was the
  // vote's last.
  const auto retry_after = [&](std::size_t a) {
    if (a + 1 >= attempts_per_vote) return;
    ++site.retries;
    ++tally.retries;
    needed_retry = true;
    apply_backoff(policy, a + 1, tally.backoff_us);
  };

  for (std::size_t v = 0; v < votes; ++v) {
    for (std::size_t a = 0; a < attempts_per_vote; ++a) {
      const auto attempt =
          static_cast<std::uint32_t>(v * attempts_per_vote + a);
      fault::MeasureFaults f;
      if (site.fault_session) {
        f = site.fault_session->roll(static_cast<std::uint32_t>(sample),
                                     attempt, width);
      }
      // Code drift is not injectable when the engine's tap is hard-selected
      // at construction; drop the lane before it reaches the trace.
      if (!engine.supports_code_trim()) f.code_delta = 0;
      record_fault_events(site, f, sample, attempt, tally);
      if (f.dead || f.hung) {
        if (f.hung) ++tally.timeouts;
        retry_after(a);
        continue;
      }
      core::MeasureRequest req;
      req.start = sample_time(sample);
      if (engine.supports_code_trim()) {
        req.code = drifted_code(engine.context().current_code(), f.code_delta);
      }
      if (site.fault_session) site.fault_session->arm(f);
      core::RawSample raw;
      try {
        raw = engine.measure_raw(req);
      } catch (const net::TransportError& err) {
        // A remote engine's transport failure (deadline blown, short read,
        // connection lost) IS a hung measure: record it on the hung lane
        // with the IoStatus as the trace detail and fall through to the
        // same retry/backoff path. Quarantine streaks and degradation
        // telemetry follow for free.
        if (site.fault_session) site.fault_session->disarm();
        fault::MeasureFaults tf;
        tf.hung = true;
        tf.hung_detail = static_cast<std::int32_t>(err.status());
        record_fault_events(site, tf, sample, attempt, tally);
        ++tally.timeouts;
        retry_after(a);
        continue;
      }
      if (site.fault_session) site.fault_session->disarm();
      if (a > 0) needed_retry = true;
      forced_stall_pushes = std::max(forced_stall_pushes, f.ring_stall_pushes);
      vote_raws.push_back(raw);
      break;
    }
  }
  if (vote_raws.empty()) return false;

  if (vote_raws.size() == 1) {
    out = vote_raws.front();
  } else {
    // Lost votes shrink the panel; keep it odd so majority stays defined.
    std::size_t panel = vote_raws.size();
    if (panel % 2 == 0) --panel;
    std::vector<core::ThermoWord>& words = shard.vote_words;
    words.clear();
    for (std::size_t i = 0; i < panel; ++i) words.push_back(vote_raws[i].word);
    const core::ThermoWord winner = majority_word(words);
    bool overridden = false;
    std::size_t match = panel;  // first vote that already equals the winner
    for (std::size_t i = 0; i < panel; ++i) {
      if (words[i] == winner) {
        if (match == panel) match = i;
      } else {
        overridden = true;
      }
    }
    if (match < panel) {
      out = vote_raws[match];
    } else {
      // Majority word matches no single vote (flips on distinct bits):
      // publish it on the first vote's code and timestamp; the worker
      // decodes it like any other word.
      out = vote_raws.front();
      out.word = winner;
    }
    if (overridden) {
      ++site.vote_overrides;
      ++tally.vote_overrides;
    }
  }
  if (needed_retry) {
    ++site.recovered;
    ++tally.recovered;
  }
  return true;
}

void ScanGrid::capture_site_batch_chaos(Site& site, std::size_t first,
                                        std::size_t count, Shard& shard) {
  const ResiliencePolicy& policy = config_.resilience;
  Tally& tally = shard.tally;
  ensure_engine(site);

  shard.raws.clear();
  shard.records.clear();
  shard.forced_pushes.clear();
  for (std::size_t k = first; k < first + count; ++k) {
    if (site.quarantined) {
      ++site.lost;
      ++tally.lost;
      continue;
    }
    const double t0 = now_seconds();
    core::RawSample raw;
    std::uint32_t forced_stall_pushes = 0;
    if (!chaos_measure(site, k, shard, raw, forced_stall_pushes)) {
      ++site.lost;
      ++tally.lost;
      ++site.fail_streak;
      if (policy.quarantine_after > 0 &&
          site.fail_streak >= policy.quarantine_after) {
        site.quarantined = true;
        site.quarantine_sample = static_cast<std::uint32_t>(k + 1);
        ++tally.quarantined;
      }
      continue;
    }
    site.fail_streak = 0;
    observe_code_policy(site, raw.word);
    raw.sample_index = static_cast<std::uint32_t>(k);
    shard.raws.push_back(raw);
    shard.records.emplace_back().latency_us = (now_seconds() - t0) * 1e6;
    shard.forced_pushes.push_back(forced_stall_pushes);
  }

  // The batch's published samples through the same decode as the plain
  // loop, then one span push. A ring-overflow storm makes a struck sample's
  // push meet a full ring `forced_pushes` times first: under kBlockProducer
  // those are stalls, counted and yielded here before the push (lossless);
  // under kDropNewest the struck sample is dropped, so it is compacted out of
  // the batch before the push. Accepted samples end up at the front for
  // finish_batch.
  decode_batch(shard);
  const std::size_t n = shard.raws.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    fill_record(site, shard, i, shard.records[i].latency_us);
    const std::uint32_t forced = shard.forced_pushes[i];
    if (config_.backpressure == BackpressurePolicy::kBlockProducer) {
      for (std::uint32_t j = 0; j < forced; ++j) {
        ++tally.stalls;
        std::this_thread::yield();
      }
    } else if (forced > 0) {
      ++tally.produced;
      ++tally.drops;
      continue;
    }
    if (kept != i) {
      shard.raws[kept] = shard.raws[i];
      shard.words[kept] = shard.words[i];
      shard.bins[kept] = shard.bins[i];
      shard.records[kept] = shard.records[i];
    }
    ++kept;
  }
  const std::size_t accepted = push_span_with_backpressure(
      config_.backpressure, shard.ring, shard.records.data(), kept,
      tally.stalls, tally.drops, tally.produced);
  finish_batch(site, shard, accepted, first + count);
  flush_tally(tally);
}

void ScanGrid::worker_run_shard(Shard& shard) {
  struct DoneGuard {
    Shard& shard;
    ~DoneGuard() { shard.done.store(true, std::memory_order_release); }
  } guard{shard};

  const std::size_t samples = config_.samples_per_site;
  for (std::size_t base = 0; base < samples; base += config_.batch) {
    const std::size_t count = std::min(config_.batch, samples - base);
    for (Site* site : shard.sites) {
      if (chaos_) {
        capture_site_batch_chaos(*site, base, count, shard);
      } else {
        capture_site_batch(*site, base, count, shard);
      }
    }
  }
}

void ScanGrid::aggregate() {
  auto& drained_counter = telemetry_.counter("grid.samples_drained");
  auto& depth = telemetry_.gauge("grid.ring_depth_last");

  // The store lane: the caller thread is the store's single writer. Workers
  // have already encoded, decoded and assembled every record on the rings;
  // this loop only ingests them, one popped chunk per ingest_span. The
  // degradation mirror (resilience telemetry → store atomics) refreshes once
  // per drain sweep.
  serve::TelemetryStore* store = config_.store.get();
  Counter* serve_ingested = nullptr;
  Counter* deg_injected = nullptr;
  Counter* deg_retries = nullptr;
  Counter* deg_recovered = nullptr;
  Counter* deg_lost = nullptr;
  Counter* deg_dropped = nullptr;
  Counter* deg_quarantined = nullptr;
  if (store != nullptr) {
    serve_ingested = &telemetry_.counter("grid.serve.ingested");
    deg_injected = &telemetry_.counter("grid.fault.injected");
    deg_retries = &telemetry_.counter("grid.retries");
    deg_recovered = &telemetry_.counter("grid.samples_recovered");
    deg_lost = &telemetry_.counter("grid.samples_lost");
    deg_dropped = &telemetry_.counter("grid.samples_dropped");
    deg_quarantined = &telemetry_.counter("grid.sites_quarantined");
  }
  const auto mirror_degradation = [&] {
    serve::DegradationStatus status;
    status.faults_injected = deg_injected->value();
    status.retries = deg_retries->value();
    status.samples_recovered = deg_recovered->value();
    status.samples_lost = deg_lost->value();
    status.samples_dropped = deg_dropped->value();
    status.sites_quarantined = deg_quarantined->value();
    store->set_degradation(status);
  };

  // Records come off each ring in chunks; the buffer is function-scope so
  // the steady state performs no allocation.
  constexpr std::size_t kDrainChunk = 256;
  std::vector<serve::IngestRecord> chunk(kDrainChunk);

  for (;;) {
    // Read the done flags BEFORE the drain pass: if every worker had
    // finished before we drained and the rings still came up empty, no new
    // sample can appear and the scan is complete.
    bool all_done = true;
    for (const auto& shard : shards_) {
      if (!shard->done.load(std::memory_order_acquire)) {
        all_done = false;
        break;
      }
    }

    bool any = false;
    for (const auto& shard : shards_) {
      for (;;) {
        const std::size_t got =
            shard->ring.try_pop_span(chunk.data(), kDrainChunk);
        if (got == 0) break;
        any = true;
        drained_counter.increment(got);
        if (store == nullptr) continue;
        serve_ingested->increment(got);
        store->ingest_span(chunk.data(), got);
      }
      depth.set(static_cast<double>(shard->ring.size()));
    }
    if (store != nullptr) mirror_degradation();

    if (!any) {
      if (all_done) break;
      std::this_thread::yield();
    }
  }

  // Final serving-layer flush: one last degradation mirror, then force a
  // snapshot so queries after run() observe every drained sample.
  if (store != nullptr) {
    mirror_degradation();
    store->publish_all();
    telemetry_.counter("grid.serve.publishes").increment(store->publishes());
  }
}

RunResult ScanGrid::run() {
  PSNT_CHECK(!ran_, "ScanGrid::run is single-shot; build a fresh grid");
  ran_ = true;

  // Row storage is allocated here, on the caller thread, so every run's rows
  // come from its malloc arena and are reused by the next run; allocated on
  // the short-lived worker threads they would spread over per-thread arenas
  // and raise peak RSS across runs. Reserving touches no page: the 32 MiB
  // matrix of a 256 × 2048 grid is first written by the workers.
  for (const auto& site : sites_) {
    site->row.samples.reserve(config_.samples_per_site);
    site->row.valid.assign(config_.samples_per_site, false);
  }

  const double t0 = now_seconds();
  {
    ThreadPool pool(shards_.size());
    for (auto& shard : shards_) {
      Shard* s = shard.get();
      pool.submit([this, s] { worker_run_shard(*s); });
    }
    aggregate();
    pool.shutdown();
    pool.rethrow_first_exception();
  }
  RunResult result;
  result.wall_seconds = now_seconds() - t0;

  result.sites.reserve(sites_.size());
  for (const auto& site_ptr : sites_) {
    Site& site = *site_ptr;
    SiteResult& sr = result.sites.emplace_back(std::move(site.row));
    if (site.engine) {
      sr.final_code = site.engine->context().current_code();
      sr.code_steps = site.engine->context().code_steps();
    } else {
      sr.final_code = config_.code;
    }
    sr.quarantined = site.quarantined;
    sr.quarantine_sample = site.quarantine_sample;
    sr.retries = site.retries;
    sr.recovered = site.recovered;
    sr.lost = site.lost;
    sr.vote_overrides = site.vote_overrides;
    sr.fault_events = std::move(site.trace);
    result.faults_injected += sr.fault_events.size();
    result.retries += sr.retries;
    result.recovered += sr.recovered;
    result.lost += sr.lost;
    result.vote_overrides += sr.vote_overrides;
    result.quarantined_sites += sr.quarantined ? 1 : 0;
  }
  result.produced = hot_.produced->value();
  result.dropped = hot_.drops->value();
  result.ring_stalls = hot_.stalls->value();
  result.samples_per_second =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.produced) / result.wall_seconds
          : 0.0;

  // grid.enc.*: the per-shard ENC tallies, summed exactly.
  core::StreamingEncodeStats enc;
  for (const auto& shard : shards_) {
    const core::StreamingEncodeStats& st = shard->enc.stats();
    enc.words += st.words;
    enc.underflows += st.underflows;
    enc.overflows += st.overflows;
    enc.bubbled_words += st.bubbled_words;
    enc.bubble_errors += st.bubble_errors;
  }
  if (enc.words > 0) {
    telemetry_.counter("grid.enc.words").increment(enc.words);
    telemetry_.counter("grid.enc.underflows").increment(enc.underflows);
    telemetry_.counter("grid.enc.overflows").increment(enc.overflows);
    telemetry_.counter("grid.enc.bubbled_words").increment(enc.bubbled_words);
    telemetry_.counter("grid.enc.bubble_errors").increment(enc.bubble_errors);
  }
  return result;
}

RailFactory ScanGrid::constant_rails(Volt v) {
  return [v](const scan::SensorSite&, stats::Xoshiro256&) {
    return std::make_unique<analog::ConstantRail>(v);
  };
}

RailFactory ScanGrid::ir_gradient_rails(const scan::Floorplan& floorplan,
                                        Volt v_pad, double drop_per_um,
                                        scan::Point pad, double sigma_volts) {
  (void)floorplan;  // geometry comes from the site record itself
  return [=](const scan::SensorSite& site, stats::Xoshiro256& rng) {
    const double dist = std::hypot(site.position.x_um - pad.x_um,
                                   site.position.y_um - pad.y_um);
    double v = v_pad.value() - drop_per_um * dist;
    if (sigma_volts > 0.0) v += rng.normal(0.0, sigma_volts);
    return std::make_unique<analog::ConstantRail>(Volt{v});
  };
}

RailFactory ScanGrid::scaled_waveform_rails(
    const scan::Floorplan& floorplan,
    std::shared_ptr<const analog::SampledRail> waveform, Volt v_nominal,
    double far_scale, scan::Point pad) {
  PSNT_CHECK(waveform != nullptr, "scaled_waveform_rails needs a waveform");
  // Farthest corner of the die from the pad normalises the scaling ramp.
  double dist_max = 1.0;
  for (const double cx : {0.0, floorplan.width_um()}) {
    for (const double cy : {0.0, floorplan.height_um()}) {
      dist_max = std::max(
          dist_max, std::hypot(cx - pad.x_um, cy - pad.y_um));
    }
  }
  return [=](const scan::SensorSite& site, stats::Xoshiro256&)
             -> std::unique_ptr<analog::RailSource> {
    const double dist = std::hypot(site.position.x_um - pad.x_um,
                                   site.position.y_um - pad.y_um);
    const double scale = 1.0 + (far_scale - 1.0) * dist / dist_max;
    const double v_nom = v_nominal.value();
    return std::make_unique<analog::CallbackRail>(
        [waveform, scale, v_nom](Picoseconds t) {
          return Volt{v_nom + scale * (waveform->at(t).value() - v_nom)};
        });
  };
}

}  // namespace psnt::grid
