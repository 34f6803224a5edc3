// Fleet soak: sustained multi-process capture through the versioned wire
// format, with a worker kill + spare restart every round.
//
// The distributed deployment in miniature: each round forks a 3-worker fleet
// (plus one pre-forked spare), shards the floorplan, streams framed RawSample
// spans over socketpairs into the aggregator drain, and SIGKILLs one primary
// once the aggregator has parsed its kKillAfterSpans-th span (of 252) so
// the restart path is exercised in every round — the benched case IS the
// failure case. Rounds repeat until the soak window closes.
// Reported into BENCH_fleet.json and gated in CI:
//
//   samples_per_sec              — aggregate decoded throughput, fork and
//                                  restart overhead included
//   span_p99_us                  — flush→drain tail latency of a sample span
//                                  crossing the process boundary (p50 too)
//   rss_peak_mb                  — coordinator-side memory ceiling
//   bit_identical_to_in_process  — conformance bit: a fleet round (including
//                                  one killed+restarted worker) decodes
//                                  bit-identically to the same sites captured
//                                  in-process
//
// PSNT_SOAK_SECONDS stretches the window (default ~2 s for CI). A timeline
// CSV (fleet_soak_timeline.csv, gitignored) records per-round throughput,
// kills and RSS.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <vector>

#include "bench/bench_util.h"
#include "fleet/fleet.h"
#include "net/wire.h"
#include "util/csv.h"

namespace psnt {
namespace {

constexpr std::size_t kWorkers = 3;
constexpr std::size_t kSites = 12;
constexpr std::size_t kSamplesPerSite = 4000;
// A primary's assignment is 4 sites × 4000 samples: 4 × 63 spans of 64.
constexpr std::uint64_t kKillAfterSpans = 64;

double soak_seconds() {
  if (const char* env = std::getenv("PSNT_SOAK_SECONDS")) {
    const double s = std::atof(env);
    if (s > 0.0) return s;
  }
  return 2.0;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

fleet::FleetConfig soak_config() {
  fleet::FleetConfig config;
  config.sites = kSites;
  config.samples_per_site = kSamplesPerSite;
  config.seed = 2026;
  config.workers = kWorkers;
  config.spares = 1;
  config.aggregator_threads = 2;
  config.span_samples = 64;
  return config;
}

double quantile_us(std::vector<std::uint64_t>& ns, double q) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(ns.size() - 1) + 0.5);
  return static_cast<double>(ns[std::min(idx, ns.size() - 1)]) * 1e-3;
}

void report() {
  bench::section("fleet soak — multi-process capture with kill/restart");
  const double seconds = soak_seconds();
  const auto config = soak_config();

  // Conformance first: one fleet round — WITH a worker killed mid-run and
  // its assignment re-run on the spare — must decode bit-identically to the
  // same sites captured in-process.
  const auto reference = fleet::FleetCoordinator::run_in_process(config);
  bool identical = true;
  bool clean = true;

  const double t_start = now_seconds();
  const double rss_start_mb = bench::current_rss_mb();
  std::uint64_t samples = 0;
  std::uint64_t spans = 0;
  std::uint64_t lost = 0;
  std::uint64_t kills = 0;
  std::uint64_t restarts = 0;
  std::uint64_t rounds = 0;
  std::vector<std::uint64_t> latency_ns;

  util::CsvTable timeline({"t_seconds", "round", "samples_per_sec",
                           "workers_restarted", "rss_mb"});
  while (now_seconds() - t_start < seconds || rounds == 0) {
    fleet::FleetCoordinator coordinator(config);
    // Kill a rotating primary after its kKillAfterSpans-th span: every
    // round exercises the spare restart.
    coordinator.schedule_kill(rounds % kWorkers, kKillAfterSpans);
    const double round_t0 = now_seconds();
    const auto result = coordinator.run();
    const double round_dt = now_seconds() - round_t0;

    clean &= result.completed && result.frame_errors == 0;
    identical &= result.matrix.identical_to(reference);
    samples += result.samples_valid;
    spans += result.spans;
    lost += result.samples_lost;
    kills += result.workers_killed;
    restarts += result.workers_restarted;
    latency_ns.insert(latency_ns.end(), result.span_latency_ns.begin(),
                      result.span_latency_ns.end());
    ++rounds;
    timeline.new_row()
        .add(now_seconds() - t_start, 3)
        .add(static_cast<long long>(rounds))
        .add(static_cast<double>(result.samples_valid) / round_dt, 7)
        .add(static_cast<long long>(result.workers_restarted))
        .add(bench::current_rss_mb(), 2);
  }
  const double elapsed = now_seconds() - t_start;

  {
    std::ofstream csv("fleet_soak_timeline.csv");
    timeline.write_csv(csv);
  }

  const double samples_per_sec = static_cast<double>(samples) / elapsed;
  const double span_p50_us = quantile_us(latency_ns, 0.50);
  const double span_p99_us = quantile_us(latency_ns, 0.99);
  const double rss_peak_mb = bench::peak_rss_mb();

  util::CsvTable table({"metric", "value"});
  table.new_row().add("soak_seconds").add(elapsed, 2);
  table.new_row().add("rounds").add(static_cast<long long>(rounds));
  table.new_row().add("workers").add(static_cast<long long>(kWorkers));
  table.new_row().add("sites").add(static_cast<long long>(kSites));
  table.new_row().add("samples_decoded").add(static_cast<long long>(samples));
  table.new_row().add("samples_per_sec").add(samples_per_sec, 7);
  table.new_row().add("spans").add(static_cast<long long>(spans));
  table.new_row().add("span_p50_us").add(span_p50_us, 3);
  table.new_row().add("span_p99_us").add(span_p99_us, 3);
  table.new_row().add("workers_killed").add(static_cast<long long>(kills));
  table.new_row().add("workers_restarted").add(
      static_cast<long long>(restarts));
  table.new_row().add("samples_lost").add(static_cast<long long>(lost));
  table.new_row().add("rss_start_mb").add(rss_start_mb, 2);
  table.new_row().add("rss_peak_mb").add(rss_peak_mb, 2);
  table.new_row().add("bit_identical_to_in_process")
      .add(identical ? "pass" : "FAIL");
  table.new_row().add("clean_runs").add(clean ? "pass" : "FAIL");
  bench::print_table(table);
  bench::note("timeline (per-round throughput + restarts): "
              "fleet_soak_timeline.csv");
  bench::note("every round kills a primary worker after its 64th span; "
              "the spare re-runs its assignment bit-identically");

  bench::JsonReport json{"BENCH_fleet.json"};
  json.set("fleet_soak", "samples_per_sec", samples_per_sec);
  json.set("fleet_soak", "span_p50_us", span_p50_us);
  json.set("fleet_soak", "span_p99_us", span_p99_us);
  json.set("fleet_soak", "rounds", static_cast<double>(rounds));
  json.set("fleet_soak", "workers_killed", static_cast<double>(kills));
  json.set("fleet_soak", "workers_restarted", static_cast<double>(restarts));
  json.set("fleet_soak", "samples_lost", static_cast<double>(lost));
  json.set("fleet_soak", "bit_identical_to_in_process",
           identical && clean ? 1.0 : 0.0);
  json.set_rss("fleet_soak");
  json.set_raw("fleet_soak", "provenance", bench::provenance_json());
  json.write();
}

// Microbenchmark: the wire codec's full frame round trip — span encode,
// parse, CRC verify, one-pass record decode — the per-span cost floor under the
// soak numbers above.
void BM_WireSpanRoundTrip(benchmark::State& state) {
  std::vector<core::RawSample> samples(64);
  for (std::size_t k = 0; k < samples.size(); ++k) {
    samples[k].site_id = static_cast<std::uint32_t>(k % 12);
    samples[k].sample_index = static_cast<std::uint32_t>(k);
    samples[k].timestamp = Picoseconds{static_cast<double>(k) * 10000.0};
    samples[k].code = core::DelayCode{3};
    samples[k].word = core::ThermoWord{(1u << (k % 30)) - 1u, 31};
  }
  std::vector<std::uint8_t> bytes;
  net::FrameParser parser;
  core::RawSample out;
  for (auto _ : state) {
    bytes.clear();
    parser.reset();
    net::FrameWriter::append_sample_span(bytes, net::SpanHeader{0, 0, 0},
                                         samples.data(), samples.size());
    parser.feed(bytes.data(), bytes.size());
    auto frame = parser.next();
    std::size_t n = 0;
    (void)net::span_sample_count(*frame, n);
    // The aggregator's one-pass walk over the span's records.
    const std::uint8_t* rec = frame->payload + net::kSpanHeaderBytes;
    for (std::size_t i = 0; i < n; ++i, rec += net::kSampleWireBytes) {
      (void)net::decode_sample(rec, out);
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * samples.size()));
}
BENCHMARK(BM_WireSpanRoundTrip);

}  // namespace
}  // namespace psnt

PSNT_BENCH_MAIN(psnt::report)
