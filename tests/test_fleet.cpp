// Fleet conformance and failure-model tests (DESIGN.md §15).
//
// The conformance requirement: a multi-process fleet run is bit-identical in
// decoded words to the same sites captured in-process — at 1, 2 and 8
// aggregator threads, with several capture threads in one worker, and still
// when a worker is SIGKILLed mid-run (after its N-th span) and its
// assignment re-run on a pre-forked spare. With no spare left, the loss is
// counted and mirrored into the serving layer's degradation status.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "calib/fit.h"
#include "fleet/fleet.h"
#include "fleet/partition.h"
#include "serve/query.h"
#include "serve/store.h"

namespace psnt::fleet {
namespace {

FleetConfig small_config() {
  FleetConfig config;
  config.sites = 8;
  config.samples_per_site = 24;
  config.seed = 77;
  config.workers = 3;
  config.spares = 0;
  config.span_samples = 7;  // force multi-span streams + a partial tail span
  return config;
}

// --- partition policy ------------------------------------------------------

TEST(Partition, BlockedSpreadsRemainderOverLeadingWorkers) {
  PartitionPolicy policy;  // kBlocked default
  const auto parts = policy.shard(10, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(parts[1], (std::vector<std::uint32_t>{4, 5, 6}));
  EXPECT_EQ(parts[2], (std::vector<std::uint32_t>{7, 8, 9}));
}

TEST(Partition, RoundRobinInterleaves) {
  PartitionPolicy policy{PartitionStrategy::kRoundRobin};
  const auto parts = policy.shard(7, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<std::uint32_t>{0, 3, 6}));
  EXPECT_EQ(parts[1], (std::vector<std::uint32_t>{1, 4}));
  EXPECT_EQ(parts[2], (std::vector<std::uint32_t>{2, 5}));
}

TEST(Partition, EverySiteAssignedExactlyOnce) {
  for (const auto strategy :
       {PartitionStrategy::kBlocked, PartitionStrategy::kRoundRobin}) {
    PartitionPolicy policy{strategy};
    const auto parts = policy.shard(23, 5);
    std::vector<int> seen(23, 0);
    for (const auto& part : parts) {
      for (const auto site : part) seen[site]++;
    }
    for (std::size_t s = 0; s < seen.size(); ++s) {
      EXPECT_EQ(seen[s], 1) << "site " << s << " under "
                            << to_string(strategy);
    }
  }
}

// --- conformance -----------------------------------------------------------

TEST(Fleet, MatchesInProcessReferenceAcrossAggregatorThreads) {
  const auto reference = FleetCoordinator::run_in_process(small_config());
  ASSERT_EQ(reference.count_valid(),
            small_config().sites * small_config().samples_per_site);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    auto config = small_config();
    config.aggregator_threads = threads;
    FleetCoordinator fleet(config);
    const auto result = fleet.run();

    EXPECT_TRUE(result.completed) << threads << " aggregator threads";
    EXPECT_EQ(result.samples_lost, 0u);
    EXPECT_EQ(result.frame_errors, 0u);
    EXPECT_EQ(result.samples_valid, result.samples_expected);
    EXPECT_TRUE(result.matrix.identical_to(reference))
        << "fleet diverged from in-process at " << threads
        << " aggregator threads";
    EXPECT_GT(result.spans, 0u);
    EXPECT_GT(result.samples_per_second, 0.0);
    EXPECT_FALSE(result.span_latency_ns.empty());
  }
}

TEST(Fleet, RoundRobinPartitionIsStillBitIdentical) {
  auto config = small_config();
  config.partition.strategy = PartitionStrategy::kRoundRobin;
  const auto reference = FleetCoordinator::run_in_process(config);
  FleetCoordinator fleet(config);
  const auto result = fleet.run();
  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.matrix.identical_to(reference));
}

// --- failure model ---------------------------------------------------------

TEST(Fleet, KilledWorkerIsRestartedOnASpareBitIdentically) {
  auto config = small_config();
  // Worker 1 owns 3 sites × 600 samples: 29 spans of 64, so a kill after
  // its 5th span lands mid-stream.
  config.samples_per_site = 600;
  config.span_samples = 64;
  config.spares = 1;
  config.aggregator_threads = 2;

  FleetCoordinator fleet(config);
  fleet.schedule_kill(1, /*after_spans=*/5);
  const auto result = fleet.run();

  EXPECT_TRUE(result.completed);
  ASSERT_EQ(result.workers_killed, 1u);
  EXPECT_EQ(result.workers_restarted, 1u);
  // The matrix must be complete and bit-identical: a spare re-runs the
  // deterministic assignment and overwrites the slots the dead worker
  // already delivered with equal values.
  EXPECT_EQ(result.assignments_lost, 0u);
  EXPECT_EQ(result.samples_lost, 0u);
  EXPECT_EQ(result.frame_errors, 0u);
  EXPECT_TRUE(
      result.matrix.identical_to(FleetCoordinator::run_in_process(config)));
}

TEST(Fleet, KillWithoutSpareCountsLossAndDegradation) {
  auto config = small_config();
  // Worker 0 owns 3 sites × 600 samples: 29 spans of 64.
  config.samples_per_site = 600;
  config.span_samples = 64;
  config.spares = 0;
  config.store = std::make_shared<serve::TelemetryStore>([&] {
    serve::StoreConfig sc;
    sc.site_count = config.sites;
    sc.shards = 2;
    return sc;
  }());

  FleetCoordinator fleet(config);
  fleet.schedule_kill(0, /*after_spans=*/5);
  const auto result = fleet.run();

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.workers_killed, 1u);
  EXPECT_EQ(result.workers_restarted, 0u);
  // Exactly the first 5 spans of worker 0 were delivered. A site is 10
  // spans (9 full, the 24-sample tail last) and fits under flush_threshold,
  // so the first send holds one whole site and those are 5 full spans.
  EXPECT_EQ(result.samples_valid, 5u * 600u + 5u * 64u);
  EXPECT_EQ(result.assignments_lost, 1u);
  EXPECT_EQ(result.samples_valid + result.samples_lost,
            result.samples_expected);

  // Surviving workers' samples are still bit-identical to the reference.
  const auto reference = FleetCoordinator::run_in_process(config);
  for (std::uint32_t site = 0; site < config.sites; ++site) {
    for (std::uint32_t k = 0; k < config.samples_per_site; ++k) {
      const std::size_t i = result.matrix.index(site, k);
      if (!result.matrix.valid[i]) continue;
      EXPECT_EQ(result.matrix.words[i], reference.words[i])
          << "site " << site << " sample " << k;
    }
  }

  // The serving layer saw the loss (degradation mirror) and the deliveries.
  const auto degradation = result.samples_lost;
  EXPECT_EQ(config.store->degradation().samples_lost, degradation);
  EXPECT_EQ(config.store->degradation().sites_quarantined, 1u);
  EXPECT_EQ(config.store->total_ingested(), result.samples_valid);
}

// --- serving layer ---------------------------------------------------------

serve::StoreConfig fleet_store_config(std::size_t sites) {
  serve::StoreConfig sc;
  sc.site_count = sites;
  sc.shards = 2;
  sc.publish_every = 16;  // many publishes under the aggregators' locks
  return sc;
}

// Everything a site snapshot holds, as raw bits.
std::vector<std::uint64_t> site_bits(const serve::SiteSnapshot& s) {
  std::vector<std::uint64_t> bits{
      s.site,
      s.latest.seq,
      std::bit_cast<std::uint64_t>(s.latest.timestamp.value()),
      std::bit_cast<std::uint64_t>(s.latest.volts),
      s.latest.in_range ? 1u : 0u,
      s.ingested,
      s.out_of_range,
      s.invalid,
      s.latest_epoch};
  for (const serve::WindowSlot& slot : s.windows) {
    bits.push_back(slot.epoch);
    bits.push_back(slot.stats.count());
    bits.push_back(std::bit_cast<std::uint64_t>(slot.stats.mean()));
    bits.push_back(std::bit_cast<std::uint64_t>(slot.stats.variance()));
    bits.push_back(std::bit_cast<std::uint64_t>(slot.sketch.sum()));
    for (std::size_t b = 0; b < slot.sketch.config().bucket_count; ++b) {
      bits.push_back(slot.sketch.bucket_count_at(b));
    }
  }
  return bits;
}

serve::HistogramSketch voltage_sketch(const serve::TelemetryStore& store) {
  serve::HistogramSketch merged{store.config().voltage_sketch};
  for (const auto& shard : store.snapshot().shards) {
    if (shard) merged.merge(shard->voltage);
  }
  return merged;
}

// Per-record ingest of the in-process capture: the store state a fleet run
// must reproduce.
void ingest_in_process_capture(const FleetConfig& config,
                               serve::TelemetryStore& into) {
  const core::DecodeLadder ladder =
      calib::make_paper_decode_ladder(calib::calibrated().model);
  std::vector<core::RawSample> capture;
  for (std::uint32_t site = 0; site < config.sites; ++site) {
    capture.clear();
    FleetCoordinator::capture_site(
        config, site, 0, static_cast<std::uint32_t>(config.samples_per_site),
        capture);
    for (const core::RawSample& sample : capture) {
      const core::VoltageBin bin = ladder.decode(sample.word, sample.code);
      serve::IngestRecord rec;
      rec.site = sample.site_id;
      rec.timestamp = sample.timestamp;
      rec.volts = bin.estimate().value();
      rec.in_range = bin.in_range();
      into.ingest(rec);
    }
  }
  into.publish_all();
}

// Runs a store-attached fleet at 1 and 2 aggregator threads and holds its
// matrix to run_in_process and its store — every site snapshot, the
// voltage sketch's buckets, the top-k — to the per-record reference.
// Latencies are wall times and the shard-wide Welford stats depend on how
// aggregator threads interleave, so only the voltage sketch's buckets are
// compared at shard level.
void expect_store_attached_runs_match_reference(const FleetConfig& config) {
  serve::TelemetryStore reference{fleet_store_config(config.sites)};
  ingest_in_process_capture(config, reference);
  const serve::QueryEngine want(reference);
  const SampleMatrix want_matrix = FleetCoordinator::run_in_process(config);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    auto run_config = config;
    run_config.aggregator_threads = threads;
    const std::size_t largest_part =
        config.partition.shard(config.sites, config.workers).front().size();
    SCOPED_TRACE(std::to_string(threads) + " aggregator threads, up to " +
                 std::to_string(FleetCoordinator::capture_threads(
                     run_config, largest_part)) +
                 " capture threads per worker");
    run_config.store = std::make_shared<serve::TelemetryStore>(
        fleet_store_config(config.sites));
    FleetCoordinator fleet(run_config);
    const auto result = fleet.run();
    ASSERT_TRUE(result.completed);
    ASSERT_EQ(result.samples_valid, result.samples_expected);
    EXPECT_EQ(result.frame_errors, 0u);
    EXPECT_TRUE(result.matrix.identical_to(want_matrix));

    const serve::QueryEngine got(*run_config.store);
    EXPECT_EQ(got.ingested(), result.samples_expected);
    for (std::uint32_t site = 0; site < config.sites; ++site) {
      ASSERT_NE(got.site(site), nullptr) << "site " << site;
      EXPECT_EQ(site_bits(*got.site(site)), site_bits(*want.site(site)))
          << "site " << site;
    }
    const serve::HistogramSketch got_v = voltage_sketch(*run_config.store);
    const serve::HistogramSketch want_v = voltage_sketch(reference);
    EXPECT_EQ(got_v.count(), want_v.count());
    for (std::size_t b = 0; b < got_v.config().bucket_count; ++b) {
      ASSERT_EQ(got_v.bucket_count_at(b), want_v.bucket_count_at(b))
          << "voltage bucket " << b;
    }
    const auto got_top = got.top_droop(8);
    const auto want_top = want.top_droop(8);
    ASSERT_EQ(got_top.size(), want_top.size());
    for (std::size_t i = 0; i < got_top.size(); ++i) {
      EXPECT_EQ(got_top[i].site, want_top[i].site);
      EXPECT_EQ(got_top[i].droop, want_top[i].droop);
    }
  }
}

// A store-attached fleet decodes each span with one decode_span and ingests
// it with one ingest_span_locked. Each site's samples arrive in capture
// order on one connection, so its store state equals a per-record ingest of
// the in-process capture, at any aggregator thread count.
TEST(Fleet, StoreMatchesPerRecordIngestOfInProcessCapture) {
  auto config = small_config();
  config.samples_per_site = 200;  // several windows rotate per site
  expect_store_attached_runs_match_reference(config);
}

// One worker owns every site, so it runs capture_threads() > 1 capture
// threads on any host with 2 or more CPUs beyond the aggregators. 13 sites
// (prime) split unevenly over any K from 2 to 12, 150 samples leave a
// partial tail span of 32, and a small flush_threshold makes each site
// several sends that interleave with the other threads' sends.
TEST(Fleet, MultiThreadWorkerMatchesInProcess) {
  FleetConfig config;
  config.sites = 13;
  config.samples_per_site = 150;
  config.seed = 4242;
  config.workers = 1;
  config.spares = 0;
  config.span_samples = 32;
  config.flush_threshold = 2048;
  expect_store_attached_runs_match_reference(config);
}

// K = max(1, min(sites, (hardware - aggregators) / workers)).
TEST(Fleet, CaptureThreadsSplitFreeCpusOverWorkers) {
  FleetConfig config;
  config.workers = 1;
  config.aggregator_threads = 1;
  // perfbench fleet_stream (1 worker, 16 sites) on a 4-CPU host.
  EXPECT_EQ(FleetCoordinator::capture_threads(config, 16, 4), 3u);
  EXPECT_EQ(FleetCoordinator::capture_threads(config, 2, 4), 2u);
  EXPECT_EQ(FleetCoordinator::capture_threads(config, 16, 1), 1u);
  EXPECT_EQ(FleetCoordinator::capture_threads(config, 0, 8), 1u);
  EXPECT_EQ(FleetCoordinator::capture_threads(config, 16, 0), 1u);

  config.workers = 3;
  config.aggregator_threads = 2;
  // bench_fleet_soak and fleet_monitor (3 workers, 2 aggregators).
  EXPECT_EQ(FleetCoordinator::capture_threads(config, 4, 4), 1u);
  EXPECT_EQ(FleetCoordinator::capture_threads(config, 4, 11), 3u);
  EXPECT_EQ(FleetCoordinator::capture_threads(config, 4, 16), 4u);
  EXPECT_EQ(FleetCoordinator::capture_threads(config, 4, 64), 4u);

  config.aggregator_threads = 8;
  EXPECT_EQ(FleetCoordinator::capture_threads(config, 4, 4), 1u);
}

// --- matrix predicate ------------------------------------------------------

TEST(Fleet, IdenticalToComparesWordsAndValidity) {
  SampleMatrix a(2, 2);
  SampleMatrix b(2, 2);
  EXPECT_TRUE(a.identical_to(b));

  a.valid[a.index(1, 0)] = 1;
  a.words[a.index(1, 0)] = core::ThermoWord{0x3, 4};
  a.code_values[a.index(1, 0)] = 3;
  EXPECT_FALSE(a.identical_to(b));

  b.valid[b.index(1, 0)] = 1;
  b.words[b.index(1, 0)] = core::ThermoWord{0x3, 4};
  b.code_values[b.index(1, 0)] = 3;
  EXPECT_TRUE(a.identical_to(b));

  b.words[b.index(1, 0)] = core::ThermoWord{0x1, 4};
  EXPECT_FALSE(a.identical_to(b));
}

}  // namespace
}  // namespace psnt::fleet
