// The benchmark's workloads and the pieces both run modes share: building a
// grid or fleet from the seed (timed as set-up), running one fixed-size scan,
// the open-loop query client, output digests, accuracy against the true
// rails, and the correctness oracles.
//
// Everything here calls public functions of the repository's modules only.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analog/rail.h"
#include "common.h"
#include "fleet/fleet.h"
#include "grid/scan_grid.h"
#include "scan/floorplan.h"
#include "serve/store.h"

namespace perfbench {

namespace scan = psnt::scan;

enum class Kind { kGridBehavioral, kGridStructural, kGridChaos, kFleetStream };

// One named workload. Sizes are sample counts, so every repetition does the
// same simulated work whatever the host speed.
struct WorkloadSpec {
  const char* name;
  Kind kind;
  std::size_t rows;     // floorplan rows (sites = rows × cols)
  std::size_t cols;
  std::size_t samples;  // per site
  std::size_t workers;  // grid worker threads, or fleet worker processes
  double horizon_ps;    // PDN scenario horizon (grid workloads)
  double interval_ps;   // sample interval
  bool store;           // serve::TelemetryStore attached to the drain
  bool chaos;           // fault storm + resilience policy
  bool query_client;    // open-loop query client beside ingest
};

[[nodiscard]] const std::vector<WorkloadSpec>& all_specs();
[[nodiscard]] const WorkloadSpec* find_spec(const std::string& name);
[[nodiscard]] std::size_t site_count(const WorkloadSpec& spec);
[[nodiscard]] std::string sizes_json(const WorkloadSpec& spec);

inline constexpr double kQueryRateHz = 1e4;
inline constexpr double kFarScale = 1.8;  // corner sites droop 1.8× harder

// --- grid workloads -------------------------------------------------------

[[nodiscard]] scan::Floorplan make_floorplan(const WorkloadSpec& spec);

// Open-loop client statistics. Latency runs from each query's due time, so
// a stalled query also delays the ones scheduled behind it.
struct QueryStats {
  std::vector<double> latency_us;
  std::vector<double> late_us;  // start − due: how late the generator ran
  // Per-call totals, filled only when the client times its calls.
  double refresh_ns = 0.0;
  double latest_ns = 0.0;
  double top_droop_ns = 0.0;
  double quantile_ns = 0.0;
};

// Issues QueryEngine::refresh + latest + top_droop + voltage_quantile at
// kQueryRateHz on its own thread, from construction until destruction
// (which stops and joins it, on exception paths too). `store` and `out`
// must outlive it.
class QueryClient {
 public:
  QueryClient(const psnt::serve::TelemetryStore& store, std::size_t sites,
              bool time_calls, QueryStats& out);
  ~QueryClient();
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::jthread thread_;  // declared last: starts after, joins before stop_
};

struct GridRep {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t run_start_ns = 0;
  std::uint64_t run_end_ns = 0;
  psnt::grid::RunResult result;
  QueryStats queries;
  // The rails the scan sensed, kept for the accuracy check.
  std::shared_ptr<const psnt::analog::SampledRail> waveform;
};

// Builds (timed as set-up: calibration fit, PDN scenario solve, store and
// grid construction) and runs one scan. `factory` replaces the grid's own
// engines (the traced run's decorators); `threads` overrides spec.workers.
[[nodiscard]] GridRep run_grid_rep(const WorkloadSpec& spec,
                                   const scan::Floorplan& fp,
                                   std::uint64_t seed, std::size_t threads,
                                   psnt::grid::EngineFactory factory = nullptr);

[[nodiscard]] psnt::grid::RailFactory grid_rails(
    const scan::Floorplan& fp,
    std::shared_ptr<const psnt::analog::SampledRail> waveform);
[[nodiscard]] psnt::grid::ScanGridConfig grid_config(const WorkloadSpec& spec,
                                                     std::uint64_t seed,
                                                     std::size_t threads);

[[nodiscard]] std::uint64_t grid_digest(const psnt::grid::RunResult& result);
[[nodiscard]] std::uint64_t delivered(const psnt::grid::RunResult& result);

struct Accuracy {
  double rail_err_mv_mean = 0.0;
  double in_range_share = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t in_range = 0;
};
[[nodiscard]] Accuracy grid_accuracy(const scan::Floorplan& fp,
                                     std::uint64_t seed, const GridRep& rep);

// The per-workload oracle: serial scan-chain broadcast (behavioral),
// standalone single-thread engines (structural), 1-worker rerun (chaos).
void check_grid(const WorkloadSpec& spec, const scan::Floorplan& fp,
                std::uint64_t seed, const GridRep& rep);

// --- fleet workload -------------------------------------------------------

[[nodiscard]] psnt::fleet::FleetConfig fleet_config(const WorkloadSpec& spec,
                                                    std::uint64_t seed);
struct FleetRep {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t run_start_ns = 0;
  std::uint64_t run_end_ns = 0;
  psnt::fleet::FleetResult result;
};
[[nodiscard]] FleetRep run_fleet_rep(const psnt::fleet::FleetConfig& config);
[[nodiscard]] std::uint64_t fleet_digest(const psnt::fleet::FleetResult& r);
// Compares with FleetCoordinator::run_in_process and returns the accuracy
// of the delivered words against each site's true rail.
[[nodiscard]] Accuracy check_fleet(const psnt::fleet::FleetConfig& config,
                                   const psnt::fleet::FleetResult& result);

// --- shared checks and provenance -----------------------------------------

// calib::calibrated().report, one line per anchor; throws CheckFailure when
// the fit did not reach the paper anchors.
[[nodiscard]] std::vector<std::string> calibration_lines();
[[nodiscard]] std::string provenance_json(const WorkloadSpec& spec,
                                          std::uint64_t seed,
                                          const std::string& git_sha,
                                          const std::string& source_digest);

}  // namespace perfbench
