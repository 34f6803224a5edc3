// Parallel scan-grid monitor: the paper's multi-point usage model as a
// running service.
//
// A 4×4 grid of sensor sites over one die, local rails derived from a solved
// first-droop PDN waveform (corner sites droop harder), sampled by the
// grid::ScanGrid runtime on a thread pool. Workers capture raw words (the
// grid's one capture path), run ENC + voltage conversion on them, tally the
// grid.enc.* statistics, and ship decoded readings through the SPSC rings;
// the caller thread's store lane feeds every one into the attached
// serve::TelemetryStore. Reporting then goes through the store's query API
// (DESIGN.md §13) — throughput, voltage and latency quantiles, worst-droop
// leaderboard, degradation — plus the runtime counters, one windowed line
// per site and the die voltage map.
#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>

#include "cut/scenarios.h"
#include "grid/scan_grid.h"
#include "scan/die_map.h"
#include "serve/query.h"
#include "serve/store.h"

int main() {
  using namespace psnt;
  using namespace psnt::literals;

  const auto fp = scan::Floorplan::grid(4000.0, 4000.0, 4, 4);

  // One solved PDN waveform, shared; per-site deviations scale up to 1.8×
  // toward the far corner of the die.
  cut::ScenarioConfig scenario_config;
  scenario_config.horizon = Picoseconds{500000.0};
  const auto scenario =
      cut::make_scenario(cut::ScenarioKind::kFirstDroop, scenario_config);
  auto waveform =
      std::make_shared<const analog::SampledRail>(scenario.vdd.to_rail());

  grid::ScanGridConfig config;
  config.threads = std::max(1u, std::thread::hardware_concurrency());
  config.samples_per_site = 48;
  config.start = Picoseconds{0.0};
  config.interval = Picoseconds{10000.0};
  config.code = core::DelayCode{3};
  config.seed = 2026;

  serve::StoreConfig store_config;
  store_config.site_count = fp.site_count();
  store_config.shards = 1;  // the drain is the single writer
  store_config.v_nominal = 1.0;
  // Ten 50 ns windows retain the whole 480 ns run, so the per-site rollups
  // below cover every sample, the first droop included.
  store_config.window.windows = 10;
  auto store = std::make_shared<serve::TelemetryStore>(store_config);
  config.store = store;

  grid::ScanGrid grid{
      fp, config,
      grid::ScanGrid::scaled_waveform_rails(fp, waveform, 1.0_V, 1.8)};

  std::printf("parallel PSN scan grid: %zu sites x %zu samples on %zu "
              "threads\n(scenario: %s)\n\n",
              fp.site_count(), config.samples_per_site,
              static_cast<std::size_t>(config.threads),
              scenario.description.c_str());

  const auto result = grid.run();

  std::printf("scan complete: %llu samples in %.1f ms (%.0f samples/sec, "
              "%llu ring stalls, %llu dropped)\n\n",
              static_cast<unsigned long long>(result.produced),
              result.wall_seconds * 1e3, result.samples_per_second,
              static_cast<unsigned long long>(result.ring_stalls),
              static_cast<unsigned long long>(result.dropped));

  std::printf("worker ENC: %llu words (%llu underflow, %llu overflow, "
              "%llu bubbled)\n\n",
              static_cast<unsigned long long>(
                  grid.telemetry().counter("grid.enc.words").value()),
              static_cast<unsigned long long>(
                  grid.telemetry().counter("grid.enc.underflows").value()),
              static_cast<unsigned long long>(
                  grid.telemetry().counter("grid.enc.overflows").value()),
              static_cast<unsigned long long>(
                  grid.telemetry().counter("grid.enc.bubbled_words").value()));

  // Store-backed report: what an operator dashboard would query.
  serve::QueryEngine query(*store);
  std::printf("%s\n", query.render_summary(5).c_str());

  // Per-site view, also from the store: each site's windowed rollup merged
  // over every retained window.
  const std::size_t windows = store_config.window.windows;
  std::printf("per-site rollups (%zu windows of %.0f ns):\n", windows,
              store_config.window.width.value() * 1e-3);
  for (std::uint32_t i = 0; i < fp.site_count(); ++i) {
    const auto* snap = query.site(i);
    const auto w = query.windowed(i, windows);
    if (snap == nullptr || !w || w->stats.count() == 0) continue;
    std::printf("  site %2u  %3llu ingested  %3llu out of range  "
                "min %.3f  mean %.3f  max %.3f V\n",
                i, static_cast<unsigned long long>(snap->ingested),
                static_cast<unsigned long long>(snap->out_of_range),
                w->stats.min(), w->stats.mean(), w->stats.max());
  }
  std::printf("\n");

  grid.telemetry().write_text(std::cout);

  // Worst-droop snapshot: re-assemble the final sample of every site into a
  // scan-chain snapshot and render the die map.
  std::vector<scan::SiteMeasurement> snapshot;
  for (const auto& site : result.sites) {
    scan::SiteMeasurement sm;
    sm.site_id = site.site_id;
    sm.measurement = site.samples.back();
    snapshot.push_back(sm);
  }
  scan::DieMap map{fp, 1.0_V};
  map.ingest(snapshot);
  std::printf("\ndie map at final sample (per-mille droop, HI/LOW = "
              "saturated):\n%s", map.render(4, 4).c_str());
  std::printf("worst site: %u (%.3f V), gradient %.1f mV\n",
              map.worst_site().site_id, map.worst_site().estimate.value(),
              map.gradient().value() * 1e3);
  return 0;
}
