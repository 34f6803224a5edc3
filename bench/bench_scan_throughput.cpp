// Ablation A3 — PSN scan chain readout cost vs number of die sites.
//
// Sec. IV: "The array sensors can be placed in many points of the DUT,
// whilst only a control system is required. This sensor system can be
// thought for PSN as scan chains are for data faults." We sweep the site
// count and report the snapshot cost in control cycles and microseconds at
// the 800 MHz control clock, plus the simulated broadcast wall time.
#include <chrono>

#include "bench/alloc_probe.h"
#include "bench/bench_util.h"
#include "calib/fit.h"
#include "scan/die_map.h"
#include "scan/scan_chain.h"

namespace psnt {
namespace {

using namespace psnt::literals;

struct ChainSetup {
  scan::Floorplan fp;
  std::vector<std::unique_ptr<analog::ConstantRail>> rails;
  scan::PsnScanChain chain;

  explicit ChainSetup(std::size_t rows, std::size_t cols)
      : fp(scan::Floorplan::grid(4000.0, 4000.0, rows, cols)),
        chain(fp, core::ThermometerConfig{}) {
    const auto& model = calib::calibrated().model;
    // Gradient: sites further from the pad at (0,0) droop more.
    for (const auto& site : fp.sites()) {
      const double dist = fp.distance_um(site.id, {0.0, 0.0});
      const double v = 1.01 - 0.05 * dist / 5657.0;  // up to ~50 mV IR drop
      rails.push_back(std::make_unique<analog::ConstantRail>(Volt{v}));
      chain.attach_site(site.id,
                        analog::RailPair{rails.back().get(), nullptr},
                        calib::make_paper_thermometer(model));
    }
  }
};

void report_simcore();

void report() {
  bench::section("A3 — scan-chain snapshot cost vs site count");
  util::CsvTable table({"sites", "chain_bits", "snapshot_cycles",
                        "readout_us_at_800MHz", "worst_site_droop_mV",
                        "gradient_mV"});
  for (std::size_t dim : {2, 4, 8, 16}) {
    ChainSetup setup(dim, dim);
    const auto snapshot =
        setup.chain.broadcast_measure(0.0_ps, core::DelayCode{3});
    scan::DieMap map{setup.fp, 1.0_V};
    map.ingest(snapshot);
    const std::size_t cycles = setup.chain.snapshot_cycles();
    table.new_row()
        .add(static_cast<long long>(dim * dim))
        .add(static_cast<long long>(dim * dim * 7))
        .add(static_cast<long long>(cycles))
        .add(static_cast<double>(cycles) * 1.25e-3, 5)
        .add((1.0 - map.worst_site().estimate.value()) * 1000.0, 4)
        .add(map.gradient().value() * 1000.0, 4);
  }
  bench::print_table(table);
  bench::note("cost is linear in sites x bits, exactly like test scan; a "
              "256-site snapshot still reads out in under 3 us at 800 MHz");
  report_simcore();
}

// Simulation-core perf baseline: behavioral measure cost into
// BENCH_simcore.json. The seed_* keys are the pre-overhaul numbers measured
// on the same 64-site broadcast workload (PR 2 baseline run); speedup_vs_seed
// compares this binary's run against them.
void report_simcore() {
  bench::section("simcore — behavioral SENSE kernel → BENCH_simcore.json");
  constexpr double kSeedNsPerMeasure = 5680.0;
  constexpr double kSeedAllocsPerMeasure = 8.0;

  ChainSetup setup(8, 8);
  // Warm up: faults in the per-code threshold ladders and the FSM state.
  (void)setup.chain.broadcast_measure(0.0_ps, core::DelayCode{3});

  constexpr std::size_t kRounds = 256;
  const std::size_t measures = kRounds * 64;
  double t = 100000.0;
  const std::uint64_t allocs_before = bench::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < kRounds; ++r) {
    benchmark::DoNotOptimize(
        setup.chain.broadcast_measure(Picoseconds{t}, core::DelayCode{3}));
    t += 100000.0;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::uint64_t allocs =
      bench::alloc_count() - allocs_before;

  const double ns_per_measure = seconds * 1e9 / static_cast<double>(measures);
  const double allocs_per_measure =
      static_cast<double>(allocs) / static_cast<double>(measures);

  bench::JsonReport json;
  json.set("scan_throughput", "measures_per_sec",
           static_cast<double>(measures) / seconds);
  json.set("scan_throughput", "ns_per_measure", ns_per_measure);
  json.set("scan_throughput", "allocs_per_measure", allocs_per_measure);
  json.set("scan_throughput", "seed_ns_per_measure", kSeedNsPerMeasure);
  json.set("scan_throughput", "seed_allocs_per_measure",
           kSeedAllocsPerMeasure);
  json.set("scan_throughput", "speedup_vs_seed",
           kSeedNsPerMeasure / ns_per_measure);
  json.set_raw("scan_throughput", "provenance", bench::provenance_json());
  json.write();

  char line[160];
  std::snprintf(line, sizeof(line),
                "%.0f ns/measure, %.2f allocs/measure (seed: %.0f ns, %.1f "
                "allocs) — %.1fx",
                ns_per_measure, allocs_per_measure, kSeedNsPerMeasure,
                kSeedAllocsPerMeasure, kSeedNsPerMeasure / ns_per_measure);
  bench::note(line);
}

void BM_BroadcastMeasure(benchmark::State& state) {
  ChainSetup setup(static_cast<std::size_t>(state.range(0)),
                   static_cast<std::size_t>(state.range(0)));
  double t = 0.0;
  for (auto _ : state) {
    t += 100000.0;
    benchmark::DoNotOptimize(
        setup.chain.broadcast_measure(Picoseconds{t}, core::DelayCode{3}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * state.range(0));
}
BENCHMARK(BM_BroadcastMeasure)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_SerializeDeserialize(benchmark::State& state) {
  ChainSetup setup(4, 4);
  (void)setup.chain.broadcast_measure(0.0_ps, core::DelayCode{3});
  for (auto _ : state) {
    const auto bits = setup.chain.shift_out();
    benchmark::DoNotOptimize(setup.chain.deserialize(bits));
  }
}
BENCHMARK(BM_SerializeDeserialize);

}  // namespace
}  // namespace psnt

PSNT_BENCH_MAIN(psnt::report)
