// Fleet conformance and failure-model tests (DESIGN.md §15).
//
// The conformance requirement: a multi-process fleet run is bit-identical in
// decoded words to the same sites captured in-process — at 1, 2 and 8
// aggregator threads, and still when a worker is SIGKILLed mid-run and its
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
  // Big enough that worker 1 cannot finish its assignment before the kill
  // lands (a 600-sample run completed in under 5 ms on a fast box and the
  // kill found the worker already gone).
  config.samples_per_site = 20000;
  config.span_samples = 64;
  config.spares = 1;
  config.aggregator_threads = 2;

  FleetCoordinator fleet(config);
  fleet.schedule_kill(1, /*after_ms=*/2);
  const auto result = fleet.run();

  EXPECT_TRUE(result.completed);
  ASSERT_EQ(result.workers_killed, 1u)
      << "kill landed after the assignment finished; grow samples_per_site";
  // Whether the kill landed before or after the worker's kDone, the matrix
  // must be complete and bit-identical: a spare re-runs the deterministic
  // assignment and overwrites any already-delivered slots with equal values.
  EXPECT_EQ(result.assignments_lost, 0u);
  EXPECT_EQ(result.samples_lost, 0u);
  EXPECT_EQ(result.frame_errors, 0u);
  EXPECT_TRUE(
      result.matrix.identical_to(FleetCoordinator::run_in_process(config)));
}

TEST(Fleet, KillWithoutSpareCountsLossAndDegradation) {
  auto config = small_config();
  // Big enough that worker 0 cannot outrun a kill scheduled a few ms in.
  config.samples_per_site = 20000;
  config.span_samples = 64;
  config.spares = 0;
  config.store = std::make_shared<serve::TelemetryStore>([&] {
    serve::StoreConfig sc;
    sc.site_count = config.sites;
    sc.shards = 2;
    return sc;
  }());

  FleetCoordinator fleet(config);
  fleet.schedule_kill(0, /*after_ms=*/2);
  const auto result = fleet.run();

  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.workers_killed, 1u);
  EXPECT_EQ(result.workers_restarted, 0u);
  ASSERT_GT(result.samples_lost, 0u) << "kill landed after the assignment "
                                        "finished; grow samples_per_site";
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

// A store-attached fleet decodes each span with one decode_span and ingests
// it with one ingest_span_locked. Each site's samples arrive in capture
// order on one connection, so its store state equals a per-record ingest of
// the in-process capture, at any aggregator thread count. Latencies are
// wall times and the shard-wide Welford stats depend on how aggregator
// threads interleave, so only the voltage sketch's buckets are compared at
// shard level.
TEST(Fleet, StoreMatchesPerRecordIngestOfInProcessCapture) {
  auto config = small_config();
  config.samples_per_site = 200;  // several windows rotate per site

  serve::TelemetryStore reference{fleet_store_config(config.sites)};
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
      reference.ingest(rec);
    }
  }
  reference.publish_all();
  const serve::QueryEngine want(reference);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(std::to_string(threads) + " aggregator threads");
    auto run_config = config;
    run_config.aggregator_threads = threads;
    run_config.store = std::make_shared<serve::TelemetryStore>(
        fleet_store_config(config.sites));
    FleetCoordinator fleet(run_config);
    const auto result = fleet.run();
    ASSERT_TRUE(result.completed);
    ASSERT_EQ(result.samples_valid, result.samples_expected);
    EXPECT_EQ(result.frame_errors, 0u);
    EXPECT_TRUE(
        result.matrix.identical_to(FleetCoordinator::run_in_process(config)));

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
