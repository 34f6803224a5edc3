// Conformance tests for the grid's one capture path: every site captures raw
// words and its worker encodes and decodes all of them against one shared
// ladder. Published words, codes, timestamps and bins
// must match serial oracles at every thread count, for every backend and
// code policy:
//   * fixed code — scan::PsnScanChain::broadcast_measure, which decodes each
//     word against its own site's engine;
//   * auto-range — a serial loop over one behavioral engine per site,
//     measure() then context().observe() per sample;
//   * structural — a standalone make_structural_engine run.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "calib/fit.h"
#include "fault/fault_injector.h"
#include "grid/scan_grid.h"
#include "scan/scan_chain.h"

namespace psnt::grid {
namespace {

using namespace psnt::literals;

// reference[site][sample]
using Reference = std::vector<std::vector<core::Measurement>>;

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

RailFactory test_rails(const scan::Floorplan& fp) {
  return ScanGrid::ir_gradient_rails(fp, Volt{1.01}, 0.05 / 5657.0,
                                     {0.0, 0.0}, /*sigma_volts=*/0.004);
}

Picoseconds sample_start(const ScanGridConfig& config, std::size_t k) {
  return Picoseconds{config.start.value() +
                     static_cast<double>(k) * config.interval.value()};
}

// Site rails exactly as the grid builds them: the factory over the site's
// published RNG stream, in floorplan order.
std::vector<std::unique_ptr<analog::RailSource>> site_rails(
    const scan::Floorplan& fp, const ScanGridConfig& config,
    const RailFactory& factory) {
  std::vector<std::unique_ptr<analog::RailSource>> rails;
  for (const auto& site : fp.sites()) {
    auto rng = ScanGrid::site_rng(config.seed, site.id);
    rails.push_back(factory(site, rng));
  }
  return rails;
}

Reference scan_chain_reference(const scan::Floorplan& fp,
                               const ScanGridConfig& config,
                               const RailFactory& factory) {
  const auto& model = calib::calibrated().model;
  const auto rails = site_rails(fp, config, factory);
  scan::PsnScanChain chain{fp, config.thermometer};
  for (std::size_t i = 0; i < fp.site_count(); ++i) {
    chain.attach_site(fp.sites()[i].id,
                      analog::RailPair{rails[i].get(), nullptr},
                      calib::make_paper_thermometer(model, config.thermometer));
  }
  Reference ref(fp.site_count());
  for (std::size_t k = 0; k < config.samples_per_site; ++k) {
    const auto snapshot =
        chain.broadcast_measure(sample_start(config, k), config.code);
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      ref[i].push_back(snapshot[i].measurement);
    }
  }
  return ref;
}

// Serial auto-range oracle; also reports each site's final code and step
// count.
struct AutoRangeReference {
  Reference samples;
  std::vector<core::DelayCode> final_code;
  std::vector<std::uint64_t> code_steps;
};

AutoRangeReference serial_auto_range_reference(const scan::Floorplan& fp,
                                               const ScanGridConfig& config,
                                               const RailFactory& factory) {
  const auto& model = calib::calibrated().model;
  const auto rails = site_rails(fp, config, factory);
  core::EngineSiteOptions options;
  options.code_policy.initial = config.code;
  options.code_policy.auto_range = true;
  AutoRangeReference ref;
  for (const auto& rail : rails) {
    auto engine = core::make_behavioral_engine(
        calib::make_paper_engine(model, config.thermometer),
        analog::RailPair{rail.get(), nullptr}, options);
    auto& row = ref.samples.emplace_back();
    for (std::size_t k = 0; k < config.samples_per_site; ++k) {
      core::MeasureRequest req;
      req.start = sample_start(config, k);
      row.push_back(engine->measure(req));
      const core::ThermoWord& word = row.back().word;
      engine->context().observe(engine->encode(word), word.width());
    }
    ref.final_code.push_back(engine->context().current_code());
    ref.code_steps.push_back(engine->context().code_steps());
  }
  return ref;
}

Reference samples_of(const RunResult& run) {
  Reference ref;
  for (const auto& site : run.sites) ref.push_back(site.samples);
  return ref;
}

void expect_matches(const RunResult& run, const Reference& ref,
                    const std::string& label) {
  ASSERT_EQ(run.sites.size(), ref.size()) << label;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(run.sites[i].samples.size(), ref[i].size()) << label;
    for (std::size_t k = 0; k < ref[i].size(); ++k) {
      ASSERT_TRUE(run.sites[i].valid[k]) << label << " site " << i;
      const auto& got = run.sites[i].samples[k];
      const auto& want = ref[i][k];
      EXPECT_EQ(got.word, want.word)
          << label << " site " << i << " sample " << k << ": word diverged";
      EXPECT_EQ(got.code, want.code)
          << label << " site " << i << " sample " << k;
      EXPECT_EQ(got.timestamp.value(), want.timestamp.value())
          << label << " site " << i << " sample " << k;
      // Bins must agree to the exact double, not just the printed string:
      // the drain ladder mirrors the kernel ladder operand-for-operand.
      ASSERT_EQ(got.bin.lo.has_value(), want.bin.lo.has_value()) << label;
      ASSERT_EQ(got.bin.hi.has_value(), want.bin.hi.has_value()) << label;
      if (want.bin.lo) {
        EXPECT_EQ(got.bin.lo->value(), want.bin.lo->value())
            << label << " site " << i << " sample " << k;
      }
      if (want.bin.hi) {
        EXPECT_EQ(got.bin.hi->value(), want.bin.hi->value())
            << label << " site " << i << " sample " << k;
      }
    }
  }
}

TEST(StreamingGrid, BitIdenticalToPerSiteDecodeAt1_2_8Threads) {
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);
  const auto reference = scan_chain_reference(fp, base_config(1),
                                              test_rails(fp));
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ScanGrid grid{fp, base_config(threads), test_rails(fp)};
    const auto result = grid.run();
    expect_matches(result, reference,
                   "threads=" + std::to_string(threads));
    EXPECT_EQ(result.produced, 16u * 6u) << "threads=" << threads;
  }
}

TEST(StreamingGrid, BatchCaptureBitIdenticalToScanChainAcrossBatchSplits) {
  // The vectorized SoA batch capture must not depend on how a site's
  // samples are split into dispatch batches: single-sample batches, a
  // ragged split (4 + 2) and one whole batch all match the scan chain.
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);
  const auto reference = scan_chain_reference(fp, base_config(1),
                                              test_rails(fp));
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const std::size_t batch :
         {std::size_t{1}, std::size_t{4}, std::size_t{96}}) {
      auto config = base_config(threads);
      config.batch = batch;
      ScanGrid grid{fp, config, test_rails(fp)};
      expect_matches(grid.run(), reference,
                     "threads=" + std::to_string(threads) +
                         " batch=" + std::to_string(batch));
    }
  }
}

TEST(StreamingGrid, AutoRangeTrimsIdenticallyOnBothPaths) {
  // Auto-range feedback stays capture-side precisely so the trim sequence
  // (and therefore every word and code) matches a serial measure/observe
  // loop sample-for-sample.
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(1);
  config.samples_per_site = 10;
  config.code_policy = CodePolicy::kAutoRange;
  // 0.85 V sits outside code 011's window: the controller must walk.
  const auto rails = ScanGrid::constant_rails(Volt{0.85});
  const auto reference = serial_auto_range_reference(fp, config, rails);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    config.threads = threads;
    ScanGrid grid{fp, config, rails};
    const auto result = grid.run();
    expect_matches(result, reference.samples,
                   "auto-range threads=" + std::to_string(threads));
    for (std::size_t i = 0; i < result.sites.size(); ++i) {
      EXPECT_EQ(result.sites[i].final_code, reference.final_code[i]);
      EXPECT_EQ(result.sites[i].code_steps, reference.code_steps[i]);
      EXPECT_GT(result.sites[i].code_steps, 0u);
    }
  }
}

TEST(StreamingGrid, AutoRangeKeepsPerSampleCaptureUnderBatchConfig) {
  // Auto-ranging sites must never take the batch capture (the controller
  // needs every word before the next PREPARE), however the samples are
  // split into dispatch batches.
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(2);
  config.samples_per_site = 10;
  config.code_policy = CodePolicy::kAutoRange;
  const auto rails = ScanGrid::constant_rails(Volt{0.85});
  const auto reference = serial_auto_range_reference(fp, config, rails);
  for (const std::size_t batch : {std::size_t{3}, std::size_t{96}}) {
    config.batch = batch;
    ScanGrid grid{fp, config, rails};
    const auto result = grid.run();
    expect_matches(result, reference.samples,
                   "auto-range batch=" + std::to_string(batch));
    for (const auto& site : result.sites) EXPECT_GT(site.code_steps, 0u);
  }
}

TEST(StreamingGrid, StructuralSitesStreamRawWords) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto config = base_config(1);
  config.samples_per_site = 2;
  config.fidelity = SiteFidelity::kStructural;
  const auto factory = ScanGrid::constant_rails(1.0_V);

  // Standalone gate-level oracle: one structural engine per site, measured
  // per sample with its own decode.
  const auto& model = calib::calibrated().model;
  const auto rails = site_rails(fp, config, factory);
  core::EngineSiteOptions options;
  options.code_policy.initial = config.code;
  Reference reference;
  for (const auto& rail : rails) {
    auto engine = core::make_structural_engine(
        calib::make_paper_array(model), core::PulseGenerator{model.pg_config()},
        analog::RailPair{rail.get(), nullptr},
        config.thermometer.control_period, options);
    auto& row = reference.emplace_back();
    for (std::size_t k = 0; k < config.samples_per_site; ++k) {
      core::MeasureRequest req;
      req.start = sample_start(config, k);
      row.push_back(engine->measure(req));
    }
  }

  ScanGrid grid{fp, config, factory};
  expect_matches(grid.run(), reference, "structural");
  // The netlist batch really took the raw path: the worker's ENC saw every
  // word, and the sim telemetry still flowed.
  EXPECT_EQ(grid.telemetry().counter("grid.enc.words").value(), 2u * 2u);
  EXPECT_GT(grid.telemetry().counter("grid.sim_events").value(), 0u);
}

TEST(StreamingGrid, DrainPassEncTelemetry) {
  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);
  ScanGrid grid{fp, base_config(4), test_rails(fp)};
  const auto result = grid.run();
  auto& t = grid.telemetry();
  // Every delivered sample went through a worker's encoder exactly once
  // (the test keeps its historical name from when the drain encoded).
  EXPECT_EQ(t.counter("grid.enc.words").value(), result.produced);
  EXPECT_LE(t.counter("grid.enc.underflows").value(),
            t.counter("grid.enc.words").value());
  EXPECT_LE(t.counter("grid.enc.overflows").value(),
            t.counter("grid.enc.words").value());
}

TEST(StreamingGrid, ChaosPathForcesPerSiteDecode) {
  // Attaching an injector (even an all-zero-probability one) activates the
  // chaos loop. The name is historical: the chaos loop no longer decodes at
  // its site. It ships raw words through the same drain decode as the plain
  // loops, so words, codes, timestamps and bins match a plain run and the
  // drain encoder sees every chaos sample.
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  auto chaos_config = base_config(2);
  chaos_config.injector =
      std::make_shared<fault::FaultInjector>(2026, fault::FaultStormConfig{});
  ScanGrid chaos{fp, chaos_config, test_rails(fp)};
  ScanGrid plain{fp, base_config(2), test_rails(fp)};
  const auto a = chaos.run();
  const auto b = plain.run();
  expect_matches(a, samples_of(b), "chaos-vs-plain");
  EXPECT_EQ(a.produced, 2u * 6u);
  EXPECT_EQ(chaos.telemetry().counter("grid.enc.words").value(), a.produced);
}

TEST(StreamingGrid, ChaosGridUnaffectedByBatchCapture) {
  // An injector forces the chaos loop (per-sample measures and votes); how
  // a site's samples are split into dispatch batches must be a strict no-op
  // there, and every split still matches the scan chain.
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 2, 2);
  const auto reference = scan_chain_reference(fp, base_config(1),
                                              test_rails(fp));
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{4}, std::size_t{96}}) {
    auto config = base_config(2);
    config.batch = batch;
    config.injector = std::make_shared<fault::FaultInjector>(
        414, fault::FaultStormConfig{});
    ScanGrid grid{fp, config, test_rails(fp)};
    const auto result = grid.run();
    expect_matches(result, reference,
                   "chaos batch=" + std::to_string(batch));
    EXPECT_EQ(result.produced, 4u * 6u) << "batch=" << batch;
  }
}

// Forwards only the pure virtuals of IMeasureEngine to a real behavioral
// handle: no raw, batch or voting overrides, so the grid runs on the
// interface defaults (measure_raw derived from measure(), per-sample
// capture). Each measure() flips the next bit of `flip_bits`, cycling, so
// three votes on one sample flip three different bits.
class MinimalEngine final : public core::IMeasureEngine {
 public:
  MinimalEngine(core::EngineHandle inner, std::vector<std::size_t> flip_bits)
      : inner_(std::move(inner)), flip_bits_(std::move(flip_bits)) {}

  core::EngineContext& context() override { return inner_->context(); }
  [[nodiscard]] std::size_t word_bits() const override {
    return inner_->word_bits();
  }
  core::Measurement measure(const core::MeasureRequest& req) override {
    core::Measurement m = inner_->measure(req);
    if (!flip_bits_.empty()) {
      const std::size_t bit = flip_bits_[calls_++ % flip_bits_.size()];
      m.word.set_bit(bit, !m.word.bit(bit));
      m.bin = inner_->decode(m.word, m.code);
    }
    return m;
  }
  core::VoltageBin decode(const core::ThermoWord& word,
                          core::DelayCode code) override {
    return inner_->decode(word, code);
  }
  [[nodiscard]] core::EncodedWord encode(
      const core::ThermoWord& word) const override {
    return inner_->encode(word);
  }

 private:
  core::EngineHandle inner_;
  std::vector<std::size_t> flip_bits_;
  std::size_t calls_ = 0;
};

EngineFactory minimal_engines(const ScanGridConfig& config,
                              std::vector<std::size_t> flip_bits) {
  return [thermometer = config.thermometer, flip_bits](
             std::uint32_t, const analog::RailPair& rails,
             const core::EngineSiteOptions& options) -> core::EngineHandle {
    return std::make_unique<MinimalEngine>(
        core::make_behavioral_engine(
            calib::make_paper_engine(calib::calibrated().model, thermometer),
            rails, options),
        flip_bits);
  };
}

TEST(StreamingGrid, DefaultRawFallbackAndNoMatchMajorityPublishCleanWords) {
  const auto fp = scan::Floorplan::grid(1000.0, 1000.0, 1, 2);
  const auto reference = scan_chain_reference(fp, base_config(1),
                                              test_rails(fp));
  const auto ladder =
      calib::make_paper_decode_ladder(calib::calibrated().model);

  // Plain run through the interface defaults (no flips).
  auto plain_config = base_config(2);
  plain_config.engine_factory = minimal_engines(plain_config, {});
  ScanGrid plain{fp, plain_config, test_rails(fp)};
  const auto p = plain.run();
  expect_matches(p, reference, "default-raw");
  EXPECT_EQ(p.vote_overrides, 0u);

  // Chaos run: every vote flips a different bit, so the bitwise majority is
  // the clean word and matches no single vote.
  auto chaos_config = base_config(2);
  chaos_config.resilience.votes = 3;
  chaos_config.engine_factory = minimal_engines(chaos_config, {0, 2, 4});
  ScanGrid chaos{fp, chaos_config, test_rails(fp)};
  const auto c = chaos.run();
  expect_matches(c, reference, "no-match-majority");
  EXPECT_EQ(c.vote_overrides, 2u * 6u) << "every sample was out-voted";
  for (const auto& site : c.sites) {
    EXPECT_EQ(site.vote_overrides, 6u);
    for (const auto& m : site.samples) {
      const core::VoltageBin want = ladder.decode(m.word, m.code);
      ASSERT_EQ(m.bin.lo.has_value(), want.lo.has_value());
      ASSERT_EQ(m.bin.hi.has_value(), want.hi.has_value());
      if (want.lo) { EXPECT_EQ(m.bin.lo->value(), want.lo->value()); }
      if (want.hi) { EXPECT_EQ(m.bin.hi->value(), want.hi->value()); }
    }
  }
}

TEST(StreamingGrid, DropNewestStillAccountsForEverySample) {
  // Backpressure semantics are unchanged by the smaller ring payload.
  const auto fp = scan::Floorplan::grid(2000.0, 2000.0, 2, 2);
  auto config = base_config(2);
  config.backpressure = BackpressurePolicy::kDropNewest;
  config.ring_capacity = 2;
  ScanGrid grid{fp, config, test_rails(fp)};
  const auto result = grid.run();
  std::uint64_t valid = 0;
  for (const auto& site : result.sites) {
    for (bool v : site.valid) valid += v ? 1 : 0;
  }
  EXPECT_EQ(result.produced, 4u * 6u);
  EXPECT_EQ(valid + result.dropped, result.produced);
}

}  // namespace
}  // namespace psnt::grid
