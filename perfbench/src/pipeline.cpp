#include "pipeline.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "calib/fit.h"
#include "core/sense_simd.h"
#include "cut/scenarios.h"
#include "fault/fault_injector.h"
#include "psn/pdn.h"
#include "scan/scan_chain.h"
#include "serve/query.h"

namespace perfbench {

using namespace psnt;

namespace {

constexpr core::DelayCode kCode{3};
constexpr double kPipelineHorizonPs = 12e6;  // 12 µs of pipeline activity
constexpr double kTransactionPs = 7500.0;  // 6 control cycles at 1250 ps
constexpr std::size_t kStructuralCheckSites = 3;

// The chaos_soak storm: every fault lane live, droop depth from a solved
// PDN step response.
fault::FaultStormConfig chaos_storm() {
  fault::FaultStormConfig storm;
  storm.p_stuck_site = 0.15;
  storm.p_metastable = 0.10;
  storm.p_code_drift = 0.08;
  storm.p_rail_droop = 0.08;
  storm.p_dead_site = 0.12;
  storm.p_hung = 0.20;
  storm.p_ring_storm = 0.05;
  storm.droop_depth = fault::pdn_droop_depth(psn::LumpedPdnParams{}, 2.0);
  storm.dead_onset_horizon = 24;
  storm.ring_storm_pushes = 3;
  return storm;
}

// 6 retries, 3 votes, quarantine after 3. Backoff 0: runs time the program,
// not sleep_for.
grid::ResiliencePolicy chaos_policy() {
  grid::ResiliencePolicy policy;
  policy.max_retries = 6;
  policy.votes = 3;
  policy.quarantine_after = 3;
  policy.backoff_base_us = 0;
  return policy;
}

// The gate-level engine runs its transactions back to back in its own
// timeline and stamps each sample with the requested schedule. Where in a
// transaction the netlist senses its rail is found once, from outside:
// bisect the instant of a 0.85 V → 1.05 V rail step until the first
// measure's word flips. Scheduling the structural grid from that instant
// makes each timestamp the SENSE instant the accuracy metric evaluates.
double netlist_sense_instant_ps() {
  static const double instant = [] {
    const auto& model = calib::calibrated().model;
    const core::ThermometerConfig thermometer{};
    const auto sensed_high = [&](double step_ps) {
      const analog::CallbackRail rail{[step_ps](Picoseconds t) {
        return Volt{t.value() < step_ps ? 0.85 : 1.05};
      }};
      core::EngineSiteOptions options;
      options.code_policy.initial = kCode;
      core::EngineHandle engine = core::make_structural_engine(
          calib::make_paper_array(model),
          core::PulseGenerator{model.pg_config()},
          analog::RailPair{&rail, nullptr}, thermometer.control_period,
          options);
      return engine->measure_raw(core::MeasureRequest{}).word.count_ones() >
             3;
    };
    double lo = 0.0;                  // step before the sense: reads high
    double hi = 2.0 * kTransactionPs;  // step after it: reads low
    check(sensed_high(lo) && !sensed_high(hi),
          "a rail step does not flip the structural engine's first word");
    while (hi - lo > 1.0) {
      const double mid = 0.5 * (lo + hi);
      (sensed_high(mid) ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
  }();
  return instant;
}

double sample_time_ps(const grid::ScanGridConfig& config, std::size_t k) {
  return config.start.value() +
         static_cast<double>(k) * config.interval.value();
}

}  // namespace

const std::vector<WorkloadSpec>& all_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"grid_behavioral", Kind::kGridBehavioral, 16, 16, 2048, 2,
       kPipelineHorizonPs, kPipelineHorizonPs / 2048.0, true, false, true},
      // The netlist runs its transactions back to back, 7.5 ns apart, so the
      // schedule uses that spacing; 1536 of them span 11.5 µs of the
      // waveform.
      {"grid_structural", Kind::kGridStructural, 3, 4, 1536, 3,
       kPipelineHorizonPs, kTransactionPs, true, false, false},
      // Each site's fate under the storm (dead, quarantined) is one draw, so
      // 1024 sites keep the loss share steady from seed to seed.
      {"grid_chaos", Kind::kGridChaos, 32, 32, 512, 3, kPipelineHorizonPs,
       kPipelineHorizonPs / 512.0, false, true, false},
      {"fleet_stream", Kind::kFleetStream, 16, 16, 4096, 1, 0.0, 10000.0,
       false, false, false},
  };
  return specs;
}

const WorkloadSpec* find_spec(const std::string& name) {
  for (const WorkloadSpec& spec : all_specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::size_t site_count(const WorkloadSpec& spec) {
  return spec.rows * spec.cols;
}

std::string sizes_json(const WorkloadSpec& spec) {
  std::ostringstream os;
  os << "{\"sites\": " << site_count(spec)
     << ", \"samples_per_site\": " << spec.samples
     << ", \"workers\": " << spec.workers
     << ", \"interval_ps\": " << spec.interval_ps
     << ", \"horizon_ps\": " << spec.horizon_ps
     << ", \"store\": " << (spec.store ? "true" : "false")
     << ", \"query_rate_hz\": " << (spec.query_client ? kQueryRateHz : 0.0)
     << "}";
  return os.str();
}

// --- grid workloads -------------------------------------------------------

scan::Floorplan make_floorplan(const WorkloadSpec& spec) {
  return scan::Floorplan::grid(4000.0, 4000.0, spec.rows, spec.cols);
}

namespace {

void run_query_client(const serve::TelemetryStore& store, std::size_t sites,
                      const std::atomic<bool>& stop, bool time_calls,
                      QueryStats& out) {
  serve::QueryEngine query(store);
  out.latency_us.reserve(1U << 16);
  out.late_us.reserve(1U << 16);
  const auto period = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / kQueryRateHz));
  const Clock::time_point t0 = Clock::now();
  double sink = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    const Clock::time_point due = t0 + period * static_cast<std::int64_t>(i);
    while (Clock::now() < due) {
      if (stop.load(std::memory_order_acquire)) return;
      std::this_thread::yield();
    }
    if (stop.load(std::memory_order_acquire)) return;
    const Clock::time_point start = Clock::now();
    const auto site = static_cast<std::uint32_t>(i % sites);
    if (time_calls) {
      const std::uint64_t a = now_ns();
      query.refresh();
      const std::uint64_t b = now_ns();
      const auto latest = query.latest(site);
      const std::uint64_t c = now_ns();
      const auto top = query.top_droop(8);
      const std::uint64_t d = now_ns();
      sink += query.voltage_quantile(0.99);
      const std::uint64_t e = now_ns();
      out.refresh_ns += static_cast<double>(b - a);
      out.latest_ns += static_cast<double>(c - b);
      out.top_droop_ns += static_cast<double>(d - c);
      out.quantile_ns += static_cast<double>(e - d);
      sink += latest ? latest->volts : 0.0;
      sink += static_cast<double>(top.size());
    } else {
      query.refresh();
      const auto latest = query.latest(site);
      const auto top = query.top_droop(8);
      sink += query.voltage_quantile(0.99);
      sink += latest ? latest->volts : 0.0;
      sink += static_cast<double>(top.size());
    }
    const Clock::time_point end = Clock::now();
    out.late_us.push_back(
        std::chrono::duration<double, std::micro>(start - due).count());
    out.latency_us.push_back(
        std::chrono::duration<double, std::micro>(end - due).count());
  }
  if (sink == -1.0) std::fputs("", stderr);  // keeps the reads observable
}

}  // namespace

QueryClient::QueryClient(const serve::TelemetryStore& store, std::size_t sites,
                         bool time_calls, QueryStats& out)
    : thread_([this, &store, sites, time_calls, &out] {
        run_query_client(store, sites, stop_, time_calls, out);
      }) {}

QueryClient::~QueryClient() { stop_.store(true, std::memory_order_release); }

grid::RailFactory grid_rails(
    const scan::Floorplan& fp,
    std::shared_ptr<const analog::SampledRail> waveform) {
  return grid::ScanGrid::scaled_waveform_rails(fp, std::move(waveform),
                                               Volt{1.0}, kFarScale);
}

grid::ScanGridConfig grid_config(const WorkloadSpec& spec, std::uint64_t seed,
                                 std::size_t threads) {
  grid::ScanGridConfig config;
  config.threads = threads;
  config.samples_per_site = spec.samples;
  config.start = Picoseconds{0.0};
  config.interval = Picoseconds{spec.interval_ps};
  config.code = kCode;
  config.seed = seed;
  config.fidelity = grid::SiteFidelity::kBehavioral;
  if (spec.kind == Kind::kGridStructural) {
    config.fidelity = grid::SiteFidelity::kStructural;
    config.start = Picoseconds{netlist_sense_instant_ps()};
  }
  return config;
}

GridRep run_grid_rep(const WorkloadSpec& spec, const scan::Floorplan& fp,
                     std::uint64_t seed, std::size_t threads,
                     grid::EngineFactory factory) {
  GridRep rep;
  const Clock::time_point t0 = Clock::now();
  // A freshly started monitor pays the calibration fit once
  // (calib::calibrated caches it for the process), so every set-up here
  // repeats it.
  const calib::FitResult fit = calib::fit_paper_model();
  check(!fit.model.array_loads.empty(), "calibration fit produced no loads");
  cut::ScenarioConfig scenario_config;
  scenario_config.horizon = Picoseconds{spec.horizon_ps};
  scenario_config.seed = seed;
  const cut::Scenario scenario =
      cut::make_scenario(cut::ScenarioKind::kPipelineWorkload, scenario_config);
  rep.waveform =
      std::make_shared<const analog::SampledRail>(scenario.vdd.to_rail());

  grid::ScanGridConfig config = grid_config(spec, seed, threads);
  config.engine_factory = std::move(factory);
  std::shared_ptr<serve::TelemetryStore> store;
  if (spec.store) {
    serve::StoreConfig store_config;
    store_config.site_count = fp.site_count();
    store_config.shards = 1;  // the drain is the single writer
    store_config.v_nominal = 1.0;
    store = std::make_shared<serve::TelemetryStore>(store_config);
    config.store = store;
  }
  if (spec.chaos) {
    config.injector = std::make_shared<fault::FaultInjector>(seed, chaos_storm());
    config.resilience = chaos_policy();
  }
  grid::ScanGrid grid{fp, config, grid_rails(fp, rep.waveform)};
  rep.setup_s = seconds_since(t0);

  {
    std::optional<QueryClient> client;
    if (spec.query_client) {
      client.emplace(*store, fp.site_count(), false, rep.queries);
    }
    rep.run_start_ns = now_ns();
    rep.result = grid.run();
    rep.run_end_ns = now_ns();
    rep.run_s = static_cast<double>(rep.run_end_ns - rep.run_start_ns) * 1e-9;
  }
  return rep;
}

std::uint64_t grid_digest(const grid::RunResult& result) {
  Digest d;
  for (const grid::SiteResult& site : result.sites) {
    d.add(site.site_id);
    d.add(site.final_code.value());
    d.add(site.quarantined ? 1 : 0);
    d.add(site.quarantine_sample);
    d.add(site.lost);
    for (std::size_t k = 0; k < site.samples.size(); ++k) {
      d.add(site.valid[k] ? 1 : 0);
      if (!site.valid[k]) continue;
      const core::Measurement& m = site.samples[k];
      d.add(m.word.raw());
      d.add(m.word.width());
      d.add(m.code.value());
    }
  }
  return d.value();
}

std::uint64_t delivered(const grid::RunResult& result) {
  std::uint64_t n = 0;
  for (const grid::SiteResult& site : result.sites) {
    for (const bool v : site.valid) n += v ? 1 : 0;
  }
  return n;
}

Accuracy grid_accuracy(const scan::Floorplan& fp, std::uint64_t seed,
                       const GridRep& rep) {
  Accuracy acc;
  const grid::RailFactory rails = grid_rails(fp, rep.waveform);
  double err_v = 0.0;
  for (std::size_t i = 0; i < fp.site_count(); ++i) {
    const scan::SensorSite& record = fp.sites()[i];
    auto rng = grid::ScanGrid::site_rng(seed, record.id);
    const auto vdd = rails(record, rng);
    const grid::SiteResult& site = rep.result.sites[i];
    for (std::size_t k = 0; k < site.samples.size(); ++k) {
      if (!site.valid[k]) continue;
      ++acc.delivered;
      const core::Measurement& m = site.samples[k];
      if (!m.bin.in_range()) continue;
      ++acc.in_range;
      err_v += std::fabs(m.bin.estimate().value() -
                         vdd->at(m.timestamp).value());
    }
  }
  acc.rail_err_mv_mean =
      acc.in_range > 0 ? 1e3 * err_v / static_cast<double>(acc.in_range) : 0.0;
  acc.in_range_share = acc.delivered > 0
                           ? static_cast<double>(acc.in_range) /
                                 static_cast<double>(acc.delivered)
                           : 0.0;
  return acc;
}

namespace {

void check_behavioral_oracle(const WorkloadSpec& spec,
                             const scan::Floorplan& fp, std::uint64_t seed,
                             const GridRep& rep) {
  const grid::ScanGridConfig config = grid_config(spec, seed, 1);
  const auto& model = calib::calibrated().model;
  const grid::RailFactory factory = grid_rails(fp, rep.waveform);
  scan::PsnScanChain chain{fp, config.thermometer};
  std::vector<std::unique_ptr<analog::RailSource>> rails;
  for (const scan::SensorSite& site : fp.sites()) {
    auto rng = grid::ScanGrid::site_rng(seed, site.id);
    rails.push_back(factory(site, rng));
    chain.attach_site(
        site.id, analog::RailPair{rails.back().get(), nullptr},
        calib::make_paper_thermometer(model, config.thermometer));
  }
  for (std::size_t k = 0; k < spec.samples; ++k) {
    const auto snapshot = chain.broadcast_measure(
        Picoseconds{sample_time_ps(config, k)}, config.code);
    check(snapshot.size() == rep.result.sites.size(),
          "scan-chain oracle covers a different site count");
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      const grid::SiteResult& site = rep.result.sites[i];
      check(site.valid[k] && site.samples[k].word == snapshot[i].measurement.word,
            "grid word differs from the serial scan-chain oracle at site " +
                std::to_string(i) + " sample " + std::to_string(k));
    }
  }
}

void check_structural_standalone(const WorkloadSpec& spec,
                                 const scan::Floorplan& fp, std::uint64_t seed,
                                 const GridRep& rep) {
  const grid::ScanGridConfig config = grid_config(spec, seed, 1);
  const auto& model = calib::calibrated().model;
  const grid::RailFactory factory = grid_rails(fp, rep.waveform);
  const std::size_t n = std::min(kStructuralCheckSites, fp.site_count());
  for (std::size_t i = 0; i < n; ++i) {
    const scan::SensorSite& record = fp.sites()[i];
    auto rng = grid::ScanGrid::site_rng(seed, record.id);
    const auto vdd = factory(record, rng);
    core::EngineSiteOptions options;
    options.code_policy.initial = config.code;
    core::EngineHandle engine = core::make_structural_engine(
        calib::make_paper_array(model), core::PulseGenerator{model.pg_config()},
        analog::RailPair{vdd.get(), nullptr},
        config.thermometer.control_period, options);
    std::vector<core::RawSample> words;
    for (std::size_t base = 0; base < spec.samples; base += config.batch) {
      const std::size_t count = std::min(config.batch, spec.samples - base);
      core::MeasureRequest req;
      req.start = Picoseconds{sample_time_ps(config, base)};
      engine->measure_raw_batch(req, config.interval, count, words);
    }
    const grid::SiteResult& site = rep.result.sites[i];
    for (std::size_t k = 0; k < spec.samples; ++k) {
      check(site.valid[k] && site.samples[k].word == words[k].word,
            "structural grid word differs from a standalone engine at site " +
                std::to_string(i) + " sample " + std::to_string(k));
    }
  }
}

void check_chaos_one_worker(const WorkloadSpec& spec,
                            const scan::Floorplan& fp, std::uint64_t seed,
                            const GridRep& rep) {
  const GridRep ref = run_grid_rep(spec, fp, seed, 1);
  check(ref.result.sites.size() == rep.result.sites.size(),
        "chaos reference covers a different site count");
  for (std::size_t i = 0; i < rep.result.sites.size(); ++i) {
    const grid::SiteResult& a = rep.result.sites[i];
    const grid::SiteResult& b = ref.result.sites[i];
    const std::string where = " at site " + std::to_string(i);
    check(a.valid == b.valid, "chaos validity differs from 1 worker" + where);
    check(a.lost == b.lost, "chaos lost count differs from 1 worker" + where);
    check(a.quarantined == b.quarantined &&
              a.quarantine_sample == b.quarantine_sample,
          "chaos quarantine differs from 1 worker" + where);
    for (std::size_t k = 0; k < a.samples.size(); ++k) {
      check(!a.valid[k] || a.samples[k].word == b.samples[k].word,
            "chaos word differs from 1 worker" + where + " sample " +
                std::to_string(k));
    }
  }
}

}  // namespace

void check_grid(const WorkloadSpec& spec, const scan::Floorplan& fp,
                std::uint64_t seed, const GridRep& rep) {
  const grid::RunResult& r = rep.result;
  const std::uint64_t attempted =
      static_cast<std::uint64_t>(fp.site_count()) * spec.samples;
  check(r.dropped == 0, "grid dropped samples under blocking backpressure");
  check(delivered(r) + r.lost == attempted,
        "delivered plus fault-lost samples do not add up to the attempts");
  switch (spec.kind) {
    case Kind::kGridBehavioral:
      check(r.lost == 0, "behavioral grid lost samples");
      check_behavioral_oracle(spec, fp, seed, rep);
      break;
    case Kind::kGridStructural:
      check(r.lost == 0, "structural grid lost samples");
      check_structural_standalone(spec, fp, seed, rep);
      break;
    case Kind::kGridChaos:
      check_chaos_one_worker(spec, fp, seed, rep);
      break;
    case Kind::kFleetStream:
      check(false, "fleet workload handed to the grid check");
  }
}

// --- fleet workload -------------------------------------------------------

fleet::FleetConfig fleet_config(const WorkloadSpec& spec, std::uint64_t seed) {
  fleet::FleetConfig config;
  config.sites = site_count(spec);
  config.samples_per_site = spec.samples;
  config.interval = Picoseconds{spec.interval_ps};
  config.code = kCode;
  config.seed = seed;
  config.workers = spec.workers;
  config.spares = 0;
  config.aggregator_threads = 1;
  return config;
}

FleetRep run_fleet_rep(const fleet::FleetConfig& config) {
  FleetRep rep;
  const Clock::time_point t0 = Clock::now();
  const calib::FitResult fit = calib::fit_paper_model();  // see run_grid_rep
  check(!fit.model.array_loads.empty(), "calibration fit produced no loads");
  fleet::FleetCoordinator coordinator{config};
  rep.setup_s = seconds_since(t0);
  rep.run_start_ns = now_ns();
  rep.result = coordinator.run();
  rep.run_end_ns = now_ns();
  rep.run_s = static_cast<double>(rep.run_end_ns - rep.run_start_ns) * 1e-9;
  return rep;
}

std::uint64_t fleet_digest(const fleet::FleetResult& r) {
  Digest d;
  const fleet::SampleMatrix& m = r.matrix;
  for (std::size_t i = 0; i < m.valid.size(); ++i) {
    d.add(m.valid[i]);
    if (!m.valid[i]) continue;
    d.add(m.words[i].raw());
    d.add(m.words[i].width());
    d.add(m.code_values[i]);
  }
  return d.value();
}

Accuracy check_fleet(const fleet::FleetConfig& config,
                     const fleet::FleetResult& result) {
  check(result.completed, "fleet run did not complete");
  check(result.frame_errors == 0, "fleet saw frame errors");
  check(result.samples_valid == result.samples_expected,
        "fleet lost samples");
  check(result.matrix.identical_to(fleet::FleetCoordinator::run_in_process(config)),
        "fleet matrix differs from FleetCoordinator::run_in_process");

  Accuracy acc;
  const core::DecodeLadder ladder =
      calib::make_paper_decode_ladder(calib::calibrated().model);
  double err_v = 0.0;
  std::vector<core::RawSample> raw;
  for (std::uint32_t site = 0; site < config.sites; ++site) {
    const auto engine = fleet::FleetCoordinator::make_site_engine(config, site);
    raw.clear();
    fleet::FleetCoordinator::capture_site(
        config, site, 0, static_cast<std::uint32_t>(config.samples_per_site),
        raw);
    for (const core::RawSample& s : raw) {
      const std::size_t idx = result.matrix.index(site, s.sample_index);
      ++acc.delivered;
      const core::VoltageBin bin =
          ladder.decode(result.matrix.words[idx],
                        core::DelayCode{result.matrix.code_values[idx]});
      if (!bin.in_range()) continue;
      ++acc.in_range;
      err_v += std::fabs(bin.estimate().value() -
                         engine.vdd->at(s.timestamp).value());
    }
  }
  acc.rail_err_mv_mean =
      acc.in_range > 0 ? 1e3 * err_v / static_cast<double>(acc.in_range) : 0.0;
  acc.in_range_share = acc.delivered > 0
                           ? static_cast<double>(acc.in_range) /
                                 static_cast<double>(acc.delivered)
                           : 0.0;
  return acc;
}

// --- shared checks and provenance -----------------------------------------

std::vector<std::string> calibration_lines() {
  const calib::FitResult& fit = calib::calibrated();
  std::vector<std::string> lines;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "calibration: objective %.6g ps^2, %d Nelder-Mead iterations, "
                "simplex converged flag %d",
                fit.objective, fit.iterations, fit.converged ? 1 : 0);
  lines.emplace_back(buf);
  // The fit has reached the paper when every anchor is matched: the fitted
  // thresholds exactly, the predicted code-010 range within 15 mV. The
  // optimizer's own flag asks for a simplex spread below 1e-14 and stays
  // false at the iteration cap, so it is reported, not gated.
  constexpr double kAnchorTolerance = 0.015;
  bool reached = fit.objective < 1.0 && !fit.report.empty();
  for (const calib::AnchorReport& row : fit.report) {
    std::snprintf(buf, sizeof buf,
                  "calibration: %-28s paper %.6g achieved %.6g %s",
                  row.name.c_str(), row.target, row.achieved,
                  row.unit.c_str());
    lines.emplace_back(buf);
    if (!(std::fabs(row.error()) <= kAnchorTolerance)) reached = false;
  }
  check(reached, "calibration fit did not reach the paper anchors");
  return lines;
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        const auto first = model.find_first_not_of(' ');
        return first == std::string::npos ? "" : model.substr(first);
      }
    }
  }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string provenance_json(const WorkloadSpec& spec, std::uint64_t seed,
                            const std::string& git_sha,
                            const std::string& source_digest) {
  std::ostringstream os;
  os << "{\"cpu\": " << json_string(cpu_model())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"lto\": " << json_string(PERFBENCH_LTO)
     << ", \"simd\": " << json_string(core::simd::backend())
     << ", \"git_sha\": " << json_string(git_sha)
     << ", \"source_digest\": " << json_string(source_digest)
     << ", \"workload\": " << json_string(spec.name) << ", \"seed\": " << seed
     << ", \"sizes\": " << sizes_json(spec) << "}";
  return os.str();
}

}  // namespace perfbench
