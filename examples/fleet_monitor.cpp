// Multi-process fleet capture with a mid-run worker kill (DESIGN.md §15).
//
// The distributed deployment end to end: a FleetCoordinator forks three
// worker processes plus one standby spare, shards a 12-site floorplan across
// them, and streams framed RawSample spans over the versioned wire format
// into two aggregator threads feeding a serve::TelemetryStore. Once the
// aggregator has parsed worker 1's 20th span (of 128), worker 1 is
// SIGKILLed — the spare re-runs its whole
// assignment, and because a site's capture sequence is a pure function of
// (seed, site, sample), the restarted shard overwrites any already-delivered
// slots with bit-identical values.
//
// Exits 0 only if the fleet run (kill and restart included) decodes
// bit-identically to the same sites captured in-process, with nothing lost.
#include <cstdio>
#include <memory>

#include "fleet/fleet.h"
#include "serve/query.h"
#include "serve/store.h"

int main() {
  using namespace psnt;

  fleet::FleetConfig config;
  config.sites = 12;
  config.samples_per_site = 2000;
  config.seed = 2026;
  config.workers = 3;
  config.spares = 1;
  config.aggregator_threads = 2;
  config.span_samples = 64;

  serve::StoreConfig store_config;
  store_config.site_count = config.sites;
  store_config.shards = 2;
  store_config.v_nominal = 1.0;
  auto store = std::make_shared<serve::TelemetryStore>(store_config);
  config.store = store;

  std::printf("fleet monitor: %zu sites x %zu samples across %zu workers "
              "(+%zu spare), %zu aggregator threads\n",
              config.sites, config.samples_per_site, config.workers,
              config.spares, config.aggregator_threads);

  // The conformance reference: the same sites captured in this process.
  const auto reference = fleet::FleetCoordinator::run_in_process(config);

  fleet::FleetCoordinator coordinator(config);
  coordinator.schedule_kill(/*worker=*/1, /*after_spans=*/20);
  const auto result = coordinator.run();

  std::printf("\n  samples      %llu valid / %llu expected (%llu lost)\n",
              static_cast<unsigned long long>(result.samples_valid),
              static_cast<unsigned long long>(result.samples_expected),
              static_cast<unsigned long long>(result.samples_lost));
  std::printf("  transport    %llu spans in %llu frames, %llu truncated "
              "tails, %llu frame errors\n",
              static_cast<unsigned long long>(result.spans),
              static_cast<unsigned long long>(result.frames),
              static_cast<unsigned long long>(result.truncated_tails),
              static_cast<unsigned long long>(result.frame_errors));
  std::printf("  failures     %llu killed, %llu restarted on spares, %llu "
              "assignments lost\n",
              static_cast<unsigned long long>(result.workers_killed),
              static_cast<unsigned long long>(result.workers_restarted),
              static_cast<unsigned long long>(result.assignments_lost));
  std::printf("  throughput   %.0f samples/s over %.3f s\n",
              result.samples_per_second, result.wall_seconds);

  serve::QueryEngine query(*store);
  query.refresh();
  std::printf("\n%s\n", query.render_summary(3).c_str());

  bool ok = true;
  if (!result.completed) {
    std::printf("FAIL: run hit its deadline before all workers finished\n");
    ok = false;
  }
  if (result.frame_errors != 0) {
    std::printf("FAIL: aggregator saw corrupted frames\n");
    ok = false;
  }
  if (result.workers_killed != 1 || result.workers_restarted != 1) {
    std::printf("FAIL: expected exactly one kill + one spare restart\n");
    ok = false;
  }
  if (result.samples_lost != 0) {
    std::printf("FAIL: spare restart should recover every sample\n");
    ok = false;
  }
  if (!result.matrix.identical_to(reference)) {
    std::printf("FAIL: fleet decode is not bit-identical to in-process\n");
    ok = false;
  }
  // The restarted spare re-delivers its whole assignment, so the store's
  // append-only ingest count may exceed the deduplicated matrix; it must
  // never fall short of it.
  if (store->total_ingested() < result.samples_valid) {
    std::printf("FAIL: store ingested %llu of %llu decoded samples\n",
                static_cast<unsigned long long>(store->total_ingested()),
                static_cast<unsigned long long>(result.samples_valid));
    ok = false;
  }
  std::printf("\n%s\n",
              ok ? "fleet monitor checks passed (bit-identical to in-process"
                   " through a worker kill)"
                 : "CHECKS FAILED");
  return ok ? 0 : 1;
}
