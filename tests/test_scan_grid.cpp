#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "calib/fit.h"
#include "grid/scan_grid.h"
#include "scan/scan_chain.h"
#include "serve/store.h"
#include "stats/rng.h"

namespace psnt::grid {
namespace {

using namespace psnt::literals;

ScanGridConfig base_config(std::size_t threads) {
  ScanGridConfig config;
  config.threads = threads;
  config.samples_per_site = 6;
  config.start = Picoseconds{0.0};
  config.interval = Picoseconds{10000.0};
  config.code = core::DelayCode{3};
  config.seed = 7;
  return config;
}

// The per-site IR gradient + per-site random offset every test below shares.
RailFactory test_rails(const scan::Floorplan& fp) {
  return ScanGrid::ir_gradient_rails(fp, Volt{1.01}, 0.05 / 5657.0,
                                     {0.0, 0.0}, /*sigma_volts=*/0.004);
}

TEST(ScanGrid, RunProducesEverySampleOfEverySite) {
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);
  ScanGrid grid{fp, base_config(4), test_rails(fp)};
  const auto result = grid.run();

  ASSERT_EQ(result.sites.size(), 16u);
  EXPECT_EQ(result.produced, 16u * 6u);
  EXPECT_EQ(result.dropped, 0u);
  for (const auto& site : result.sites) {
    ASSERT_EQ(site.samples.size(), 6u);
    for (std::size_t k = 0; k < 6; ++k) {
      EXPECT_TRUE(site.valid[k]);
      EXPECT_EQ(site.samples[k].word.width(), 7u);
      // The recorded timestamp is the SENSE sampling edge, a few control
      // cycles after the transaction launch at sample_time(k).
      EXPECT_GE(site.samples[k].timestamp, grid.sample_time(k));
    }
  }
  // Telemetry agrees with the result matrix. Per-site statistics are the
  // attached store's job (ServeGrid.StoreAnswersPerSiteStatistics...).
  EXPECT_EQ(grid.telemetry().counter("grid.samples_drained").value(),
            16u * 6u);
}

TEST(ScanGrid, DeterministicAcrossThreadCounts) {
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);
  ScanGrid serial{fp, base_config(1), test_rails(fp)};
  ScanGrid parallel{fp, base_config(4), test_rails(fp)};
  const auto a = serial.run();
  const auto b = parallel.run();

  ASSERT_EQ(a.sites.size(), b.sites.size());
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    for (std::size_t k = 0; k < 6; ++k) {
      EXPECT_EQ(a.sites[i].samples[k].word, b.sites[i].samples[k].word)
          << "site " << i << " sample " << k;
      EXPECT_EQ(a.sites[i].samples[k].bin.to_string(),
                b.sites[i].samples[k].bin.to_string());
    }
  }
}

TEST(ScanGrid, MatchesSerialScanChainBroadcastSiteForSite) {
  // The refactor's load-bearing guarantee: the grid's engine-based words,
  // codes and drain-decoded bins are bit-identical to the serial
  // PsnScanChain reference (per-site decode) at EVERY thread count.
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);

  // Serial reference: a PsnScanChain over the *same* rails (reconstructed
  // from the grid's published per-site RNG streams) and the same calibrated
  // thermometers, broadcast at the same schedule.
  const auto reference_config = base_config(1);
  const auto& model = calib::calibrated().model;
  const auto factory = test_rails(fp);
  scan::PsnScanChain chain{fp, reference_config.thermometer};
  std::vector<std::unique_ptr<analog::RailSource>> rails;
  for (const auto& site : fp.sites()) {
    auto rng = ScanGrid::site_rng(reference_config.seed, site.id);
    rails.push_back(factory(site, rng));
    chain.attach_site(
        site.id, analog::RailPair{rails.back().get(), nullptr},
        calib::make_paper_thermometer(model, reference_config.thermometer));
  }
  std::vector<std::vector<core::Measurement>> reference;
  for (std::size_t k = 0; k < reference_config.samples_per_site; ++k) {
    const auto snapshot = chain.broadcast_measure(
        Picoseconds{static_cast<double>(k) *
                    reference_config.interval.value()},
        reference_config.code);
    auto& row = reference.emplace_back();
    for (const auto& sm : snapshot) row.push_back(sm.measurement);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const auto config = base_config(threads);
    ScanGrid grid{fp, config, test_rails(fp)};
    const auto result = grid.run();
    ASSERT_EQ(result.sites.size(), reference.front().size());
    for (std::size_t k = 0; k < config.samples_per_site; ++k) {
      for (std::size_t i = 0; i < result.sites.size(); ++i) {
        const auto& got = result.sites[i].samples[k];
        const auto& want = reference[k][i];
        EXPECT_EQ(got.word, want.word)
            << "threads=" << threads << " site " << i << " sample " << k
            << ": grid diverged from the serial broadcast reference";
        EXPECT_EQ(got.code, want.code) << "site " << i << " sample " << k;
        // Exact doubles: the drain ladder must reproduce each site's own
        // decode operand-for-operand.
        ASSERT_EQ(got.bin.lo.has_value(), want.bin.lo.has_value());
        ASSERT_EQ(got.bin.hi.has_value(), want.bin.hi.has_value());
        if (want.bin.lo) {
          EXPECT_EQ(got.bin.lo->value(), want.bin.lo->value())
              << "site " << i << " sample " << k;
        }
        if (want.bin.hi) {
          EXPECT_EQ(got.bin.hi->value(), want.bin.hi->value())
              << "site " << i << " sample " << k;
        }
      }
    }
  }
}

TEST(ScanGrid, RunIsSingleShot) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  ScanGrid grid{fp, base_config(2), ScanGrid::constant_rails(1.0_V)};
  (void)grid.run();
  EXPECT_THROW((void)grid.run(), std::logic_error);
}

TEST(ScanGrid, WorkerExceptionPropagatesToCaller) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 2, 2);
  auto faulty = [](const scan::SensorSite& site, stats::Xoshiro256&)
      -> std::unique_ptr<analog::RailSource> {
    if (site.id == 3) {
      return std::make_unique<analog::CallbackRail>(
          [](Picoseconds) -> Volt { throw std::runtime_error("rail fault"); });
    }
    return std::make_unique<analog::ConstantRail>(Volt{1.0});
  };
  ScanGrid grid{fp, base_config(2), faulty};
  EXPECT_THROW((void)grid.run(), std::runtime_error);
}

TEST(ScanGrid, AutoRangePolicyTrimsPerSiteAndStaysDeterministic) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(2);
  config.samples_per_site = 10;
  config.code_policy = CodePolicy::kAutoRange;
  // 0.85 V sits outside code 011's window: the per-site controller must
  // walk the code until readings come back in range.
  ScanGrid first{fp, config, ScanGrid::constant_rails(Volt{0.85})};
  ScanGrid again{fp, config, ScanGrid::constant_rails(Volt{0.85})};
  const auto a = first.run();
  const auto b = again.run();
  for (std::size_t i = 0; i < a.sites.size(); ++i) {
    EXPECT_GT(a.sites[i].code_steps, 0u);
    EXPECT_NE(a.sites[i].final_code, config.code);
    EXPECT_EQ(a.sites[i].final_code, b.sites[i].final_code);
    for (std::size_t k = 0; k < config.samples_per_site; ++k) {
      EXPECT_EQ(a.sites[i].samples[k].word, b.sites[i].samples[k].word);
      EXPECT_EQ(a.sites[i].samples[k].code, b.sites[i].samples[k].code);
    }
  }
}

TEST(ScanGrid, DropNewestPolicyAccountsForEverySample) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 2, 2);
  auto config = base_config(2);
  config.backpressure = BackpressurePolicy::kDropNewest;
  config.ring_capacity = 2;  // tiny ring: drops become possible, not certain
  ScanGrid grid{fp, config, test_rails(fp)};
  const auto result = grid.run();
  std::uint64_t valid = 0;
  for (const auto& site : result.sites) {
    for (bool v : site.valid) valid += v ? 1 : 0;
  }
  EXPECT_EQ(result.produced, 4u * 6u);
  EXPECT_EQ(valid + result.dropped, result.produced);
}

// --- metric names: the registry's names are an interface ---------------

// Every counter and gauge name write_text lists, in its order.
std::vector<std::string> listed_metric_names(const TelemetryRegistry& t) {
  std::ostringstream text;
  t.write_text(text);
  std::istringstream lines(text.str());
  std::vector<std::string> names;
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    if (name.empty() || name == "==" || name == "metric") continue;
    names.push_back(name);
  }
  return names;
}

// Registered by every run: the hot-path instruments, the store lane's
// drain counter, and the ENC tallies summed after the join.
const std::vector<std::string> kRunCounters = {
    "grid.ring_stalls",       "grid.samples_dropped",
    "grid.samples_produced",  "grid.sim_events",
    "grid.sim_allocs",        "grid.structural_ns",
    "grid.samples_drained",   "grid.enc.words",
    "grid.enc.underflows",    "grid.enc.overflows",
    "grid.enc.bubbled_words", "grid.enc.bubble_errors"};

// The resilience counters, registered whenever the chaos loop runs; the
// store lane mirrors the first five (with grid.samples_dropped) into the
// store's degradation status.
const std::vector<std::string> kChaosCounters = {
    "grid.fault.injected",      "grid.retries",
    "grid.samples_recovered",   "grid.samples_lost",
    "grid.sites_quarantined",   "grid.vote_overrides",
    "grid.measure_timeouts",    "grid.backoff_us",
    "grid.fault.stuck_ds_node", "grid.fault.metastable_flip",
    "grid.fault.code_drift",    "grid.fault.rail_droop",
    "grid.fault.dead_site",     "grid.fault.hung_site",
    "grid.fault.ring_overflow"};

// write_text's listing of these counters: sorted by name, then the one
// gauge every run registers.
std::vector<std::string> listing(std::vector<std::string> counters,
                                 const std::vector<std::string>& more) {
  counters.insert(counters.end(), more.begin(), more.end());
  std::sort(counters.begin(), counters.end());
  counters.push_back("grid.ring_depth_last");
  return counters;
}

// A renamed or lost grid.* metric breaks dashboards without breaking a
// build, so the exact listing of a plain run is pinned, with and without
// a store attached.
TEST(ScanGrid, MetricNamesOfAPlainRunArePinned) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 2, 2);
  {
    ScanGrid grid{fp, base_config(2), test_rails(fp)};
    (void)grid.run();
    EXPECT_EQ(listed_metric_names(grid.telemetry()),
              listing(kRunCounters, {}));
  }
  auto config = base_config(2);
  serve::StoreConfig store_config;
  store_config.site_count = fp.site_count();
  config.store = std::make_shared<serve::TelemetryStore>(store_config);
  ScanGrid grid{fp, config, test_rails(fp)};
  (void)grid.run();
  const std::vector<std::string> store_lane = {
      "grid.serve.ingested",    "grid.serve.publishes",
      "grid.fault.injected",    "grid.retries",
      "grid.samples_recovered", "grid.samples_lost",
      "grid.sites_quarantined"};
  EXPECT_EQ(listed_metric_names(grid.telemetry()),
            listing(kRunCounters, store_lane));
}

// The same pin for a run through the chaos loop (injector attached).
TEST(ScanGrid, MetricNamesOfAChaosRunArePinned) {
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 2, 2);
  fault::FaultStormConfig storm;
  storm.p_metastable = 0.2;
  storm.p_hung = 0.2;
  auto config = base_config(2);
  config.injector = std::make_shared<fault::FaultInjector>(11, storm);
  config.resilience.max_retries = 2;
  config.resilience.votes = 3;
  ScanGrid grid{fp, config, test_rails(fp)};
  const auto result = grid.run();
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_EQ(listed_metric_names(grid.telemetry()),
            listing(kRunCounters, kChaosCounters));
}

// --- seeded property tests: worker-side ENC, decode and assembly --------

constexpr std::array<const char*, 5> kEncCounters = {
    "grid.enc.words", "grid.enc.underflows", "grid.enc.overflows",
    "grid.enc.bubbled_words", "grid.enc.bubble_errors"};

// One random grid: floorplan shape, rails (spanning both saturations of
// code 3), samples per site and dispatch batch, all drawn from `rng`.
struct RandomGrid {
  scan::Floorplan fp;
  ScanGridConfig config;
  RailFactory rails;
};

RandomGrid random_grid(stats::Xoshiro256& rng) {
  const double w = rng.uniform(500.0, 5000.0);
  const double h = rng.uniform(500.0, 5000.0);
  const std::size_t rows = 1 + rng.uniform_index(4);
  const std::size_t cols = 1 + rng.uniform_index(5);
  RandomGrid g{scan::Floorplan::grid(w, h, rows, cols), base_config(1), {}};
  g.config.seed = rng.next();
  g.config.samples_per_site = 1 + rng.uniform_index(40);
  const std::array<std::size_t, 7> batches = {1, 2, 3, 5, 7, 16, 96};
  g.config.batch = batches[rng.uniform_index(batches.size())];
  if (rng.uniform_index(3) == 0) {
    g.rails = ScanGrid::constant_rails(Volt{rng.uniform(0.75, 1.15)});
  } else {
    g.rails = ScanGrid::ir_gradient_rails(
        g.fp, Volt{rng.uniform(0.9, 1.15)}, rng.uniform(0.0, 0.15) / 5000.0,
        {rng.uniform(0.0, w), rng.uniform(0.0, h)}, rng.uniform(0.0, 0.03));
  }
  return g;
}

struct StoreRun {
  RunResult result;
  std::array<std::uint64_t, kEncCounters.size()> enc{};
  std::shared_ptr<serve::TelemetryStore> store;
};

StoreRun run_with_store(const RandomGrid& g, ScanGridConfig config) {
  serve::StoreConfig store_config;
  store_config.site_count = g.fp.site_count();
  store_config.shards = 1;
  store_config.publish_every = 64;  // several publishes mid-run
  StoreRun run;
  run.store = std::make_shared<serve::TelemetryStore>(store_config);
  config.store = run.store;
  ScanGrid grid{g.fp, config, g.rails};
  run.result = grid.run();
  for (std::size_t i = 0; i < kEncCounters.size(); ++i) {
    run.enc[i] = grid.telemetry().counter(kEncCounters[i]).value();
  }
  return run;
}

// Serial scan-chain words[sample][site] for the grid's schedule.
std::vector<std::vector<core::ThermoWord>> oracle_words(const RandomGrid& g) {
  const auto& model = calib::calibrated().model;
  scan::PsnScanChain chain{g.fp, g.config.thermometer};
  std::vector<std::unique_ptr<analog::RailSource>> rails;
  for (const auto& site : g.fp.sites()) {
    auto rng = ScanGrid::site_rng(g.config.seed, site.id);
    rails.push_back(g.rails(site, rng));
    chain.attach_site(
        site.id, analog::RailPair{rails.back().get(), nullptr},
        calib::make_paper_thermometer(model, g.config.thermometer));
  }
  std::vector<std::vector<core::ThermoWord>> words;
  for (std::size_t k = 0; k < g.config.samples_per_site; ++k) {
    const auto snapshot = chain.broadcast_measure(
        Picoseconds{g.config.start.value() +
                    static_cast<double>(k) * g.config.interval.value()},
        g.config.code);
    auto& row = words.emplace_back();
    for (const auto& sm : snapshot) row.push_back(sm.measurement.word);
  }
  return words;
}

void expect_same_bin(const core::VoltageBin& a, const core::VoltageBin& b,
                     const std::string& where) {
  ASSERT_EQ(a.lo.has_value(), b.lo.has_value()) << where;
  ASSERT_EQ(a.hi.has_value(), b.hi.has_value()) << where;
  if (a.lo) {
    EXPECT_EQ(a.lo->value(), b.lo->value()) << where;
  }
  if (a.hi) {
    EXPECT_EQ(a.hi->value(), b.hi->value()) << where;
  }
}

// Moving ENC, decode and assembly onto the workers must not let the worker
// count show anywhere: the result matrix, the summed grid.enc.* tallies and
// everything the store lane ingested are identical at 1, 2 and 4 workers,
// and every word matches the serial scan-chain oracle.
TEST(ScanGridProperty, WorkerCountNeverChangesMatrixEncOrStore) {
  stats::Xoshiro256 rng(0x5eed16);
  for (int trial = 0; trial < 10; ++trial) {
    const RandomGrid g = random_grid(rng);
    const std::string trial_tag = "trial " + std::to_string(trial);
    const auto oracle = oracle_words(g);
    std::optional<StoreRun> ref;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      ScanGridConfig config = g.config;
      config.threads = workers;
      StoreRun run = run_with_store(g, config);
      const std::string tag =
          trial_tag + " workers=" + std::to_string(workers);
      const std::uint64_t total =
          g.fp.site_count() * g.config.samples_per_site;
      ASSERT_EQ(run.result.produced, total) << tag;
      EXPECT_EQ(run.store->total_ingested(), total) << tag;
      EXPECT_EQ(run.enc[0], total) << tag;

      for (std::size_t i = 0; i < run.result.sites.size(); ++i) {
        const SiteResult& site = run.result.sites[i];
        ASSERT_EQ(site.samples.size(), g.config.samples_per_site) << tag;
        for (std::size_t k = 0; k < site.samples.size(); ++k) {
          ASSERT_TRUE(site.valid[k]) << tag;
          EXPECT_EQ(site.samples[k].word, oracle[k][i])
              << tag << " site " << i << " sample " << k;
        }
      }
      if (!ref) {
        ref = std::move(run);
        continue;
      }

      EXPECT_EQ(run.enc, ref->enc) << tag;
      for (std::size_t i = 0; i < run.result.sites.size(); ++i) {
        const SiteResult& a = run.result.sites[i];
        const SiteResult& b = ref->result.sites[i];
        for (std::size_t k = 0; k < a.samples.size(); ++k) {
          const std::string where =
              tag + " site " + std::to_string(i) + " sample " +
              std::to_string(k);
          EXPECT_EQ(a.samples[k].word, b.samples[k].word) << where;
          EXPECT_EQ(a.samples[k].code, b.samples[k].code) << where;
          EXPECT_EQ(a.samples[k].timestamp, b.samples[k].timestamp) << where;
          expect_same_bin(a.samples[k].bin, b.samples[k].bin, where);
        }
      }

      const serve::StoreView va = run.store->snapshot();
      const serve::StoreView vb = ref->store->snapshot();
      ASSERT_EQ(va.shards.size(), 1u);
      ASSERT_TRUE(va.shards[0] && vb.shards[0]) << tag;
      const serve::ShardSnapshot& sa = *va.shards[0];
      const serve::ShardSnapshot& sb = *vb.shards[0];
      ASSERT_EQ(sa.sites.size(), sb.sites.size());
      for (std::size_t i = 0; i < sa.sites.size(); ++i) {
        const serve::SiteSnapshot& a = *sa.sites[i];
        const serve::SiteSnapshot& b = *sb.sites[i];
        const std::string where = tag + " store site " + std::to_string(i);
        EXPECT_EQ(a.ingested, b.ingested) << where;
        EXPECT_EQ(a.out_of_range, b.out_of_range) << where;
        EXPECT_EQ(a.latest.seq, b.latest.seq) << where;
        EXPECT_EQ(a.latest.timestamp, b.latest.timestamp) << where;
        EXPECT_EQ(a.latest.volts, b.latest.volts) << where;
        EXPECT_EQ(a.latest.in_range, b.latest.in_range) << where;
      }
      EXPECT_EQ(sa.voltage.count(), sb.voltage.count()) << tag;
      EXPECT_EQ(sa.voltage.zero_count(), sb.voltage.zero_count()) << tag;
      for (std::size_t b = 0; b < sa.voltage.config().bucket_count; ++b) {
        EXPECT_EQ(sa.voltage.bucket_count_at(b), sb.voltage.bucket_count_at(b))
            << tag << " voltage bucket " << b;
      }
      // Latency values are measured wall times, which differ from run to
      // run; what must agree is that every sample landed in the sketch.
      EXPECT_EQ(sa.latency.count(), sb.latency.count()) << tag;
    }
  }
}

// Under kDropNewest a sample the ring drops must stay out of everything
// downstream of the ring: the result matrix, the ENC tallies and the store.
TEST(ScanGridProperty, DropNewestKeepsMatrixEncAndStoreInStep) {
  stats::Xoshiro256 rng(0xd50b);
  for (int trial = 0; trial < 4; ++trial) {
    const RandomGrid g = random_grid(rng);
    const auto oracle = oracle_words(g);
    for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
      ScanGridConfig config = g.config;
      config.threads = workers;
      config.backpressure = BackpressurePolicy::kDropNewest;
      config.ring_capacity = 2;  // tiny ring: drops possible, not certain
      const StoreRun run = run_with_store(g, config);
      const std::string tag = "trial " + std::to_string(trial) +
                              " workers=" + std::to_string(workers);
      std::uint64_t valid = 0;
      for (std::size_t i = 0; i < run.result.sites.size(); ++i) {
        const SiteResult& site = run.result.sites[i];
        for (std::size_t k = 0; k < site.samples.size(); ++k) {
          if (!site.valid[k]) continue;
          ++valid;
          EXPECT_EQ(site.samples[k].word, oracle[k][i])
              << tag << " site " << i << " sample " << k;
        }
      }
      EXPECT_EQ(run.result.produced,
                g.fp.site_count() * g.config.samples_per_site)
          << tag;
      EXPECT_EQ(valid + run.result.dropped, run.result.produced) << tag;
      EXPECT_EQ(run.store->total_ingested(), valid) << tag;
      EXPECT_EQ(run.enc[0], valid) << tag;
    }
  }
}

TEST(ScanGrid, StructuralFidelityAgreesWithBehavioralOnQuietRails) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(2);
  config.samples_per_site = 2;
  ScanGrid behavioral{fp, config, ScanGrid::constant_rails(1.0_V)};
  auto structural_config = config;
  structural_config.fidelity = SiteFidelity::kStructural;
  ScanGrid structural{fp, structural_config, ScanGrid::constant_rails(1.0_V)};
  const auto b = behavioral.run();
  const auto s = structural.run();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(s.sites[i].samples[k].word, b.sites[i].samples[k].word)
          << "gate-level site " << i << " diverged at sample " << k;
    }
  }
}

TEST(ScanGrid, StructuralSitesSurviveMultipleBatches) {
  // samples_per_site far beyond the dispatch batch forces repeated
  // run_measures calls on the same live site simulation — the continuation
  // path that used to throw "cannot schedule an event in the past" because
  // the first run left an enable-drop event pending mid-cycle. Also checks
  // the scheduler telemetry the grid aggregates for structural sites.
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(1);
  config.fidelity = SiteFidelity::kStructural;
  config.batch = 8;  // pin below samples_per_site so several batches run
  config.samples_per_site = 20;
  ScanGrid grid{fp, config, ScanGrid::constant_rails(1.0_V)};
  const auto result = grid.run();
  EXPECT_EQ(result.produced, 2u * 20u);
  for (const auto& site : result.sites) {
    ASSERT_EQ(site.samples.size(), 20u);
    for (std::size_t k = 1; k < 20; ++k) {
      EXPECT_EQ(site.samples[k].word, site.samples[0].word)
          << "constant rail must give a constant word (sample " << k << ")";
    }
  }
  EXPECT_GT(grid.telemetry().counter("grid.sim_events").value(), 0u);
  EXPECT_GT(grid.telemetry().counter("grid.structural_ns").value(), 0u);
}

TEST(ScanGrid, StructuralAutoRangeMatchesBehavioralAutoRange) {
  // Auto-range now runs at gate level: the structural sites resolve each
  // measure's code from the context policy and retarget the PG tap through
  // the live MUX selects. On identical rails the trim sequence — and hence
  // every word and code — must match the behavioral sites sample for
  // sample.
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(2);
  config.code_policy = CodePolicy::kAutoRange;
  config.samples_per_site = 10;
  ScanGrid behavioral{fp, config, ScanGrid::constant_rails(0.84_V)};
  auto structural_config = config;
  structural_config.fidelity = SiteFidelity::kStructural;
  ScanGrid structural{fp, structural_config,
                      ScanGrid::constant_rails(0.84_V)};
  const auto b = behavioral.run();
  const auto s = structural.run();
  bool stepped = false;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t k = 0; k < 10; ++k) {
      EXPECT_EQ(s.sites[i].samples[k].word, b.sites[i].samples[k].word)
          << "site " << i << " sample " << k;
      EXPECT_EQ(s.sites[i].samples[k].code, b.sites[i].samples[k].code)
          << "site " << i << " sample " << k;
      stepped |= s.sites[i].samples[k].code != config.code;
    }
  }
  EXPECT_TRUE(stepped) << "the sagged rail must force a real range step";
}

TEST(ScanGrid, StructuralDeterministicAcrossThreadCounts) {
  // Gate-level sites own private simulators, so the worker count must not
  // change a single word: the 1-thread structural grid is the reference for
  // 2 and 8 threads.
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 2, 2);
  auto config = base_config(1);
  config.fidelity = SiteFidelity::kStructural;
  config.samples_per_site = 4;
  ScanGrid reference{fp, config, test_rails(fp)};
  const auto expected = reference.run();

  for (const std::size_t threads : {2u, 8u}) {
    auto threaded_config = config;
    threaded_config.threads = threads;
    ScanGrid threaded{fp, threaded_config, test_rails(fp)};
    const auto actual = threaded.run();
    ASSERT_EQ(actual.sites.size(), expected.sites.size());
    for (std::size_t i = 0; i < expected.sites.size(); ++i) {
      for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_TRUE(actual.sites[i].valid[k]);
        EXPECT_EQ(actual.sites[i].samples[k].word,
                  expected.sites[i].samples[k].word)
            << threads << " threads: site " << i << " sample " << k;
      }
    }
  }
}

TEST(ScanGrid, RejectsInvalidConfigurations) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(1);
  config.samples_per_site = 0;
  EXPECT_THROW(
      (ScanGrid{fp, config, ScanGrid::constant_rails(1.0_V)}),
      std::logic_error);

  EXPECT_THROW((ScanGrid{fp, base_config(1), nullptr}), std::logic_error);
}

}  // namespace
}  // namespace psnt::grid
