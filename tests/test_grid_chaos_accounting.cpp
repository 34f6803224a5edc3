// Chaos-loop accounting: workers count faults, retries, losses and ring
// traffic in shard-local tallies and flush them into the registry once per
// site batch. After run() the registry, the RunResult sums and the attached
// store's degradation mirror must tell the same story, at any worker count
// and under either backpressure policy.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "grid/scan_grid.h"
#include "serve/store.h"

namespace psnt::grid {
namespace {

// Every storm lane live, plus scheduled faults layered over the storm.
std::shared_ptr<fault::FaultInjector> accounting_injector() {
  fault::FaultStormConfig storm;
  storm.p_stuck_site = 0.15;
  storm.p_metastable = 0.15;
  storm.p_code_drift = 0.1;
  storm.p_rail_droop = 0.1;
  storm.p_dead_site = 0.12;
  storm.p_hung = 0.25;
  storm.p_ring_storm = 0.1;
  storm.droop_depth = Volt{0.05};
  storm.dead_onset_horizon = 20;
  storm.ring_storm_pushes = 2;
  auto injector = std::make_shared<fault::FaultInjector>(404, storm);
  injector->schedule({.site_id = 3,
                      .first_sample = 4,
                      .last_sample = 9,
                      .kind = fault::FaultKind::kRingOverflow,
                      .detail = 3});
  injector->schedule({.site_id = 6,
                      .first_sample = 10,
                      .kind = fault::FaultKind::kDeadSite});
  injector->schedule({.site_id = 9,
                      .first_sample = 0,
                      .last_sample = 30,
                      .kind = fault::FaultKind::kHungSite});
  return injector;
}

std::uint64_t counter(ScanGrid& grid, const std::string& name) {
  return grid.telemetry().counter(name).value();
}

TEST(GridChaosAccounting, RegistryRunResultAndStoreAgreeAtAnyWorkerCount) {
  const auto fp = scan::Floorplan::grid(3000.0, 3000.0, 4, 4);
  constexpr std::size_t kSamples = 40;
  for (const BackpressurePolicy policy :
       {BackpressurePolicy::kBlockProducer, BackpressurePolicy::kDropNewest}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      const std::string where =
          std::string(policy == BackpressurePolicy::kBlockProducer ? "block"
                                                                   : "drop") +
          " threads=" + std::to_string(threads);
      ScanGridConfig config;
      config.threads = threads;
      config.samples_per_site = kSamples;
      config.batch = 7;  // several site batches, one of them short
      config.seed = 11;
      config.backpressure = policy;
      config.ring_capacity = 4;  // small ring: real stalls or drops happen
      config.injector = accounting_injector();
      config.resilience.max_retries = 3;
      config.resilience.votes = 3;
      config.resilience.quarantine_after = 2;
      serve::StoreConfig store_config;
      store_config.site_count = fp.site_count();
      config.store = std::make_shared<serve::TelemetryStore>(store_config);
      ScanGrid grid{fp, config,
                    ScanGrid::ir_gradient_rails(fp, Volt{1.01}, 0.05 / 4243.0)};
      const RunResult result = grid.run();

      ASSERT_GT(result.faults_injected, 0u) << where;
      ASSERT_GT(result.retries, 0u) << where;
      ASSERT_GT(result.lost, 0u) << where;
      ASSERT_GT(result.quarantined_sites, 0u) << where;
      EXPECT_EQ(counter(grid, "grid.fault.injected"), result.faults_injected)
          << where;
      EXPECT_EQ(counter(grid, "grid.retries"), result.retries) << where;
      EXPECT_EQ(counter(grid, "grid.samples_recovered"), result.recovered)
          << where;
      EXPECT_EQ(counter(grid, "grid.samples_lost"), result.lost) << where;
      EXPECT_EQ(counter(grid, "grid.vote_overrides"), result.vote_overrides)
          << where;
      EXPECT_EQ(counter(grid, "grid.sites_quarantined"),
                result.quarantined_sites)
          << where;

      // Per-kind counters partition the injected total, and each equals the
      // number of trace events of its kind.
      std::uint64_t kinds_sum = 0;
      std::uint64_t hung_events = 0;
      for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
        const auto kind = static_cast<fault::FaultKind>(k);
        const std::uint64_t n =
            counter(grid, std::string("grid.fault.") + fault::to_string(kind));
        std::uint64_t traced = 0;
        for (const SiteResult& site : result.sites) {
          for (const fault::FaultEvent& e : site.fault_events) {
            traced += e.kind == kind ? 1 : 0;
          }
        }
        EXPECT_EQ(n, traced) << where << " kind " << fault::to_string(kind);
        kinds_sum += n;
        if (kind == fault::FaultKind::kHungSite) hung_events = traced;
      }
      EXPECT_EQ(kinds_sum, counter(grid, "grid.fault.injected")) << where;
      EXPECT_EQ(counter(grid, "grid.measure_timeouts"), hung_events) << where;

      // Ring traffic: every published sample was offered once, and each
      // offered sample is either in the matrix or counted as dropped.
      std::uint64_t valid = 0;
      for (const SiteResult& site : result.sites) {
        for (const bool v : site.valid) valid += v ? 1 : 0;
      }
      EXPECT_EQ(result.produced + result.lost, fp.site_count() * kSamples)
          << where;
      EXPECT_EQ(valid + result.dropped, result.produced) << where;
      if (policy == BackpressurePolicy::kBlockProducer) {
        EXPECT_EQ(result.dropped, 0u) << where;
        EXPECT_GT(result.ring_stalls, 0u) << where << ": storms must stall";
      } else {
        EXPECT_GT(result.dropped, 0u) << where << ": storms must drop";
      }
      EXPECT_EQ(config.store->total_ingested(), valid) << where;

      const serve::DegradationStatus status = config.store->degradation();
      EXPECT_EQ(status.faults_injected, result.faults_injected) << where;
      EXPECT_EQ(status.retries, result.retries) << where;
      EXPECT_EQ(status.samples_recovered, result.recovered) << where;
      EXPECT_EQ(status.samples_lost, result.lost) << where;
      EXPECT_EQ(status.samples_dropped, result.dropped) << where;
      EXPECT_EQ(status.sites_quarantined, result.quarantined_sites) << where;
    }
  }
}

}  // namespace
}  // namespace psnt::grid
