// Grid drain → TelemetryStore wiring: the aggregator publishes every
// drained sample into an attached store, mirrors resilience telemetry into
// the degradation status, and finishes with a publish_all() so queries see
// the complete run.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <vector>

#include "grid/scan_grid.h"
#include "serve/query.h"
#include "serve/store.h"
#include "stats/rng.h"

namespace psnt::grid {
namespace {

using namespace psnt::literals;

ScanGridConfig base_config(std::size_t threads) {
  ScanGridConfig config;
  config.threads = threads;
  config.samples_per_site = 12;
  config.start = Picoseconds{0.0};
  config.interval = Picoseconds{10000.0};
  config.code = core::DelayCode{3};
  config.seed = 7;
  return config;
}

RailFactory test_rails(const scan::Floorplan& fp) {
  return ScanGrid::ir_gradient_rails(fp, Volt{1.01}, 0.05 / 5657.0,
                                     {0.0, 0.0}, /*sigma_volts=*/0.004);
}

TEST(ServeGrid, DrainPublishesEverySampleIntoStore) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 3, 3);
  auto config = base_config(2);

  serve::StoreConfig store_config;
  store_config.site_count = fp.site_count();
  store_config.shards = 1;
  store_config.v_nominal = 1.0;
  store_config.publish_every = 16;
  auto store = std::make_shared<serve::TelemetryStore>(store_config);
  config.store = store;

  ScanGrid grid{fp, config, test_rails(fp)};
  const auto result = grid.run();

  const std::uint64_t drained = result.produced - result.dropped;
  EXPECT_EQ(store->total_ingested(), drained);
  EXPECT_EQ(grid.telemetry().counter("grid.serve.ingested").value(), drained);
  EXPECT_GT(grid.telemetry().counter("grid.serve.publishes").value(), 0u);

  // The final publish_all() makes the whole run queryable.
  serve::QueryEngine query(*store);
  EXPECT_EQ(query.published_seq(), drained);
  for (std::uint32_t site = 0; site < fp.site_count(); ++site) {
    const auto* snap = query.site(site);
    ASSERT_NE(snap, nullptr) << "site " << site;
    EXPECT_EQ(snap->ingested, config.samples_per_site);
    EXPECT_TRUE(query.latest(site).has_value());
  }
  // Voltages land near the nominal rail, quantiles in a sane band.
  EXPECT_GT(query.voltage_quantile(0.5), 0.5);
  EXPECT_LT(query.voltage_quantile(0.5), 1.5);
  EXPECT_FALSE(query.top_droop(3).empty());
  // No chaos configured: the degradation mirror stays clean.
  const auto degradation = query.degradation();
  EXPECT_EQ(degradation.samples_lost, 0u);
  EXPECT_EQ(degradation.sites_quarantined, 0u);
}

TEST(ServeGrid, StoreSmallerThanGridIsRejected) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 3, 3);
  auto config = base_config(1);
  serve::StoreConfig store_config;
  store_config.site_count = fp.site_count() - 1;  // too small
  auto store = std::make_shared<serve::TelemetryStore>(store_config);
  config.store = store;
  EXPECT_THROW((ScanGrid{fp, config, test_rails(fp)}), std::logic_error);
}

TEST(ServeGrid, MultiShardStoreIsRejected) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 3, 3);
  auto config = base_config(1);
  serve::StoreConfig store_config;
  store_config.site_count = fp.site_count();
  store_config.shards = 2;  // drain is a single writer
  auto store = std::make_shared<serve::TelemetryStore>(store_config);
  config.store = store;
  EXPECT_THROW((ScanGrid{fp, config, test_rails(fp)}), std::logic_error);
}

TEST(ServeGrid, RunWithoutStoreStillWorks) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 2, 2);
  auto config = base_config(1);
  ASSERT_EQ(config.store, nullptr);
  ScanGrid grid{fp, config, test_rails(fp)};
  const auto result = grid.run();
  EXPECT_EQ(result.produced, fp.site_count() * config.samples_per_site);
  EXPECT_EQ(grid.telemetry().counter("grid.serve.ingested").value(), 0u);
}

// The store is the grid's only per-site statistics surface, so it must
// answer exactly what the result matrix says: per site, the ingest count is
// the number of valid samples, and the windowed rollup over a retention
// that covers the whole run has the count, extremes and mean of the site's
// decoded volts. Seeded random grids (shape, rails across both saturations,
// batch, lossless or lossy rings) at 1, 2 and 4 workers.
TEST(ServeGrid, StoreAnswersPerSiteStatisticsAtAnyThreadCount) {
  stats::Xoshiro256 rng(0x5e7e5eedULL);
  for (int trial = 0; trial < 6; ++trial) {
    const auto fp = scan::Floorplan::grid(
        rng.uniform(500.0, 5000.0), rng.uniform(500.0, 5000.0),
        1 + rng.uniform_index(3), 1 + rng.uniform_index(4));
    auto config = base_config(1);
    config.seed = rng.next();
    config.samples_per_site = 1 + rng.uniform_index(40);
    const std::array<std::size_t, 5> batches = {1, 3, 7, 16, 96};
    config.batch = batches[rng.uniform_index(batches.size())];
    if (rng.uniform_index(3) == 0) {
      config.backpressure = BackpressurePolicy::kDropNewest;
      config.ring_capacity = 2;  // drops become possible, not certain
    }
    const auto rails = ScanGrid::ir_gradient_rails(
        fp, Volt{rng.uniform(0.8, 1.15)}, rng.uniform(0.0, 0.15) / 5000.0,
        {0.0, 0.0}, rng.uniform(0.0, 0.03));

    // Every sample's SENSE edge falls before the next sample's launch, so
    // the windows cover [0, (samples + 1) × interval).
    serve::StoreConfig store_config;
    store_config.site_count = fp.site_count();
    store_config.shards = 1;
    store_config.publish_every = 16;  // several publishes mid-run
    store_config.window.width = Picoseconds{4.0 * config.interval.value()};
    store_config.window.windows = config.samples_per_site / 4 + 2;

    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "trial " << trial << ", " << threads << " workers");
      auto store = std::make_shared<serve::TelemetryStore>(store_config);
      config.threads = threads;
      config.store = store;
      ScanGrid grid{fp, config, rails};
      const auto result = grid.run();

      serve::QueryEngine query(*store);
      for (std::uint32_t i = 0; i < fp.site_count(); ++i) {
        const SiteResult& row = result.sites[i];
        std::vector<double> volts;
        for (std::size_t k = 0; k < row.samples.size(); ++k) {
          if (row.valid[k]) {
            volts.push_back(row.samples[k].bin.estimate().value());
          }
        }
        const auto* snap = query.site(i);
        ASSERT_NE(snap, nullptr) << "site " << i;
        EXPECT_EQ(snap->ingested, volts.size()) << "site " << i;

        const auto windowed = query.windowed(i, store_config.window.windows);
        if (volts.empty()) {
          EXPECT_FALSE(windowed.has_value()) << "site " << i;
          continue;
        }
        ASSERT_TRUE(windowed.has_value()) << "site " << i;
        const stats::OnlineStats& st = windowed->stats;
        double sum = 0.0;
        for (const double v : volts) sum += v;
        EXPECT_EQ(st.count(), volts.size()) << "site " << i;
        EXPECT_EQ(st.min(), *std::min_element(volts.begin(), volts.end()))
            << "site " << i;
        EXPECT_EQ(st.max(), *std::max_element(volts.begin(), volts.end()))
            << "site " << i;
        EXPECT_NEAR(st.mean(), sum / static_cast<double>(volts.size()),
                    1e-12)
            << "site " << i;
      }
    }
  }
}

}  // namespace
}  // namespace psnt::grid
