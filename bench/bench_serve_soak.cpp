// Serving-layer soak: sustained multi-threaded ingest into the
// serve::TelemetryStore with concurrent query interference.
//
// The always-on deployment in miniature: one ingest thread per store shard
// pushes synthetic per-site samples (deterministic xoshiro streams, droop
// shaped so the top-K leaderboard is known) as fast as the store accepts
// them, while query threads hammer the read API (refresh + global
// quantiles + windowed rollups + top-K + degradation) the whole time.
// Reported into BENCH_serve.json and gated in CI:
//
//   ingest_ns_per_sample  — aggregate ingest cost under query interference
//   samples_per_sec       — derived throughput (the ISSUE floor is 2 M/s)
//   query_p99_us          — read-path tail latency (p50 also reported)
//   rss_peak_mb           — fixed-memory ceiling
//   rss_growth_mb         — current-RSS delta across the soak window; the
//                           store is fixed-memory, so this must stay ~0
//                           regardless of how long the soak runs
//
// A second, ungated section times the grid's store lane alone: one writer
// ingesting a 256-site × 2048-sample grid's decoded readings in the order
// grid workers produce them (batch by batch, site by site) into a fresh
// 1-shard store with the default StoreConfig, 256 records per ingest_span
// call as the grid's drain pops them:
//
//   store_lane.ns_per_record     — median over repeats, publishes included
//   store_lane.allocs_per_record — every operator-new in the timed loop
//
// The soak window defaults to a CI-friendly ~2 s; PSNT_SOAK_SECONDS
// stretches it to hours without changing memory (that is the point).
// A timeline CSV (serve_soak_timeline.csv, gitignored) records per-tick
// throughput and RSS for eyeballing flatness.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_probe.h"
#include "bench/bench_util.h"
#include "cut/scenarios.h"
#include "grid/scan_grid.h"
#include "scan/floorplan.h"
#include "serve/query.h"
#include "serve/store.h"
#include "stats/rng.h"
#include "util/csv.h"

namespace psnt {
namespace {

constexpr std::size_t kSites = 64;
constexpr std::size_t kIngestThreads = 4;  // one per store shard
constexpr std::size_t kQueryThreads = 2;
constexpr std::uint64_t kSeed = 2026;

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

serve::StoreConfig soak_config() {
  serve::StoreConfig config;
  config.site_count = kSites;
  config.shards = kIngestThreads;
  config.v_nominal = 1.0;
  config.top_k = 8;
  config.publish_every = 4096;
  return config;
}

// One shard's ingest loop: synthetic droopy-rail samples for the shard's
// sites. Site s has mean droop proportional to s, so the exact top-K is
// the highest site ids — checked after the soak.
void ingest_loop(serve::TelemetryStore& store, std::size_t shard,
                 const std::atomic<bool>& stop, std::uint64_t& ingested) {
  stats::Xoshiro256 rng(kSeed ^ (0x9e3779b97f4a7c15ULL * (shard + 1)));
  std::uint64_t k = 0;
  serve::IngestRecord rec;
  while (!stop.load(std::memory_order_relaxed)) {
    // Round-robin over the shard's sites; ~batch granularity keeps the
    // stop-flag check off the per-sample path.
    for (std::uint32_t site = static_cast<std::uint32_t>(shard);
         site < kSites; site += kIngestThreads) {
      const double droop =
          0.001 * static_cast<double>(site) + rng.normal(0.0, 0.005);
      rec.site = site;
      rec.timestamp = Picoseconds{static_cast<double>(k) * 10000.0};
      rec.volts = 1.0 - droop;
      rec.latency_us = 0.2 + rng.normal(0.0, 0.02);
      rec.in_range = true;
      rec.valid = true;
      store.ingest(rec);
      ++ingested;
    }
    ++k;
  }
}

// Query interference: latest + windowed + quantiles + top-K in a tight
// loop, each full round timed into a latency sketch.
void query_loop(const serve::TelemetryStore& store,
                const std::atomic<bool>& stop, serve::HistogramSketch& lat,
                std::uint64_t& queries, double& checksum) {
  serve::QueryEngine q(store);
  std::uint32_t site = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const double t0 = now_seconds();
    q.refresh();
    double acc = q.voltage_quantile(0.5) + q.voltage_quantile(0.99) +
                 q.latency_quantile(0.99);
    const auto worst = q.top_droop(8);
    acc += worst.empty() ? 0.0 : worst.front().droop;
    if (const auto w = q.windowed(site, 4)) acc += w->stats.mean();
    acc += static_cast<double>(q.degradation().samples_lost);
    site = (site + 1) % kSites;
    lat.add((now_seconds() - t0) * 1e6);
    ++queries;
    checksum += acc;  // defeat optimisation without atomics in the loop
  }
}

void soak(bench::JsonReport& json) {
  bench::section("serve soak — multi-threaded ingest + concurrent queries");
  const double seconds = soak_seconds();
  const double warmup = std::min(0.25 * seconds, 0.5);

  serve::TelemetryStore store{soak_config()};

  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> ingested(kIngestThreads, 0);
  std::vector<std::uint64_t> queries(kQueryThreads, 0);
  std::vector<double> checksums(kQueryThreads, 0.0);
  // Per-thread query-latency sketches (µs range matches the store's
  // latency sketch so quantile error stays ≤ 2.5%).
  const serve::SketchConfig lat_config{0.025, 0.01, 288};
  std::vector<serve::HistogramSketch> query_lat(
      kQueryThreads, serve::HistogramSketch{lat_config});

  std::vector<std::thread> threads;
  threads.reserve(kIngestThreads + kQueryThreads);
  for (std::size_t s = 0; s < kIngestThreads; ++s) {
    threads.emplace_back([&store, &stop, &ingested, s] {
      ingest_loop(store, s, stop, ingested[s]);
    });
  }
  for (std::size_t i = 0; i < kQueryThreads; ++i) {
    threads.emplace_back([&store, &stop, &query_lat, &queries, &checksums, i] {
      query_loop(store, stop, query_lat[i], queries[i], checksums[i]);
    });
  }

  // Warmup, then measure the soak window: ingest delta over elapsed time,
  // RSS growth across the window, per-tick timeline for flatness.
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup));
  const double t_start = now_seconds();
  const std::uint64_t ingested_start = store.total_ingested();
  const double rss_start_mb = bench::current_rss_mb();

  util::CsvTable timeline(
      {"t_seconds", "samples_ingested", "samples_per_sec", "rss_mb"});
  const double tick = std::max(seconds / 20.0, 0.05);
  double last_t = t_start;
  std::uint64_t last_ingested = ingested_start;
  while (now_seconds() - t_start < seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(tick));
    const double t = now_seconds();
    const std::uint64_t n = store.total_ingested();
    timeline.new_row()
        .add(t - t_start, 3)
        .add(static_cast<long long>(n - ingested_start))
        .add(static_cast<double>(n - last_ingested) / (t - last_t), 7)
        .add(bench::current_rss_mb(), 2);
    last_t = t;
    last_ingested = n;
  }

  const double elapsed = now_seconds() - t_start;
  const std::uint64_t ingested_soak = store.total_ingested() - ingested_start;
  const double rss_end_mb = bench::current_rss_mb();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  {
    std::ofstream csv("serve_soak_timeline.csv");
    timeline.write_csv(csv);
  }

  // Merge the query-thread latency sketches (exact) for the tail numbers.
  serve::HistogramSketch lat = query_lat[0];
  for (std::size_t i = 1; i < query_lat.size(); ++i) lat.merge(query_lat[i]);
  std::uint64_t total_queries = 0;
  for (const auto q : queries) total_queries += q;

  const double samples_per_sec = static_cast<double>(ingested_soak) / elapsed;
  const double ingest_ns = 1e9 / std::max(samples_per_sec, 1.0);
  const double query_p50_us = lat.quantile(0.50);
  const double query_p99_us = lat.quantile(0.99);
  const double rss_growth_mb = rss_end_mb - rss_start_mb;
  const double rss_peak_mb = bench::peak_rss_mb();

  // Post-soak correctness spot checks: the store must agree with the known
  // synthetic distribution — top-K droop is the highest site ids, every
  // site has a latest reading, totals add up.
  store.publish_all();
  serve::QueryEngine q(store);
  bool ok = q.published_seq() == store.total_ingested();
  const auto worst = q.top_droop(4);
  ok &= worst.size() == 4;
  for (const auto& entry : worst) ok &= entry.site >= kSites - 8;
  for (std::uint32_t site = 0; site < kSites; ++site) {
    ok &= q.latest(site).has_value();
  }

  util::CsvTable table({"metric", "value"});
  table.new_row().add("soak_seconds").add(elapsed, 2);
  table.new_row().add("ingest_threads").add(
      static_cast<long long>(kIngestThreads));
  table.new_row().add("query_threads").add(
      static_cast<long long>(kQueryThreads));
  table.new_row().add("samples_ingested").add(
      static_cast<long long>(ingested_soak));
  table.new_row().add("samples_per_sec").add(samples_per_sec, 7);
  table.new_row().add("ingest_ns_per_sample").add(ingest_ns, 4);
  table.new_row().add("queries").add(static_cast<long long>(total_queries));
  table.new_row().add("query_p50_us").add(query_p50_us, 3);
  table.new_row().add("query_p99_us").add(query_p99_us, 3);
  table.new_row().add("rss_start_mb").add(rss_start_mb, 2);
  table.new_row().add("rss_growth_mb").add(rss_growth_mb, 3);
  table.new_row().add("rss_peak_mb").add(rss_peak_mb, 2);
  table.new_row().add("store_publishes").add(
      static_cast<long long>(store.publishes()));
  table.new_row().add("consistency_checks").add(ok ? "pass" : "FAIL");
  bench::print_table(table);
  bench::note("timeline (per-tick throughput + RSS): serve_soak_timeline.csv");
  bench::note("PSNT_SOAK_SECONDS stretches the window; RSS must stay flat");

  json.set("serve_soak", "samples_per_sec", samples_per_sec);
  json.set("serve_soak", "ingest_ns_per_sample", ingest_ns);
  json.set("serve_soak", "query_p50_us", query_p50_us);
  json.set("serve_soak", "query_p99_us", query_p99_us);
  json.set("serve_soak", "queries_per_sec",
           static_cast<double>(total_queries) / elapsed);
  json.set("serve_soak", "rss_growth_mb", rss_growth_mb);
  json.set("serve_soak", "consistency_checks", ok ? 1.0 : 0.0);
  json.set_rss("serve_soak");
  json.set_raw("serve_soak", "provenance", bench::provenance_json());
}

// The grid_monitor deployment's store lane, as perfbench grid_behavioral
// drives it: a 16 × 16 behavioral grid under the pipeline-workload droop
// waveform (corner sites droop 1.8× harder), 2048 samples over a 12 µs
// horizon (about 9 samples per 50 ns window), code 3. The grid runs once,
// without a store, and its decoded readings are replayed in the order its
// workers ship them: capture batch by capture batch, site by site, each
// batch's records sharing one latency as a batch's wall time does.
constexpr std::size_t kLaneRows = 16;
constexpr std::size_t kLaneCols = 16;
constexpr std::size_t kLaneSamples = 2048;
constexpr double kLaneHorizonPs = 12e6;
constexpr std::size_t kLaneChunk = 256;  // the grid drain's pop size
constexpr int kLaneRepeats = 7;

std::vector<serve::IngestRecord> lane_stream() {
  const auto fp =
      scan::Floorplan::grid(4000.0, 4000.0, kLaneRows, kLaneCols);
  cut::ScenarioConfig scenario_config;
  scenario_config.horizon = Picoseconds{kLaneHorizonPs};
  scenario_config.seed = kSeed;
  const cut::Scenario scenario = cut::make_scenario(
      cut::ScenarioKind::kPipelineWorkload, scenario_config);
  auto waveform =
      std::make_shared<const analog::SampledRail>(scenario.vdd.to_rail());
  grid::ScanGridConfig config;
  config.threads = 2;
  config.samples_per_site = kLaneSamples;
  config.start = Picoseconds{0.0};
  config.interval =
      Picoseconds{kLaneHorizonPs / static_cast<double>(kLaneSamples)};
  config.code = core::DelayCode{3};
  config.seed = kSeed;
  grid::ScanGrid grid{fp, config,
                      grid::ScanGrid::scaled_waveform_rails(
                          fp, std::move(waveform), Volt{1.0}, 1.8)};
  const grid::RunResult result = grid.run();

  stats::Xoshiro256 rng(kSeed);
  std::vector<serve::IngestRecord> out;
  out.reserve(fp.site_count() * kLaneSamples);
  for (std::size_t base = 0; base < kLaneSamples; base += config.batch) {
    const std::size_t end = std::min(kLaneSamples, base + config.batch);
    for (std::size_t i = 0; i < result.sites.size(); ++i) {
      const grid::SiteResult& site = result.sites[i];
      const double latency_us = rng.uniform(1.0, 4.0);
      for (std::size_t k = base; k < end; ++k) {
        if (!site.valid[k]) continue;
        const core::Measurement& m = site.samples[k];
        serve::IngestRecord rec;
        rec.site = static_cast<std::uint32_t>(i);
        rec.timestamp = m.timestamp;
        rec.volts = m.bin.estimate().value();
        rec.latency_us = latency_us;
        rec.in_range = m.bin.in_range();
        out.push_back(rec);
      }
    }
  }
  return out;
}

void store_lane(bench::JsonReport& json) {
  bench::section("store lane — one writer, 256 × 2048 grid-ordered stream");
  const std::vector<serve::IngestRecord> stream = lane_stream();
  serve::StoreConfig config;
  config.site_count = kLaneRows * kLaneCols;
  config.shards = 1;
  config.v_nominal = 1.0;

  std::vector<double> ns(kLaneRepeats);
  std::uint64_t allocs = 0;
  std::uint64_t publishes = 0;
  for (int r = 0; r < kLaneRepeats; ++r) {
    serve::TelemetryStore store{config};
    const std::uint64_t a0 = bench::alloc_count();
    const double t0 = now_seconds();
    for (std::size_t off = 0; off < stream.size(); off += kLaneChunk) {
      store.ingest_span(stream.data() + off,
                        std::min(kLaneChunk, stream.size() - off));
    }
    const double t1 = now_seconds();
    allocs = bench::alloc_count() - a0;
    publishes = store.publishes();
    ns[static_cast<std::size_t>(r)] =
        (t1 - t0) * 1e9 / static_cast<double>(stream.size());
  }
  std::sort(ns.begin(), ns.end());
  const double median = ns[ns.size() / 2];
  const double allocs_per_record =
      static_cast<double>(allocs) / static_cast<double>(stream.size());

  util::CsvTable table({"metric", "value"});
  table.new_row().add("records").add(static_cast<long long>(stream.size()));
  table.new_row().add("repeats").add(static_cast<long long>(kLaneRepeats));
  table.new_row().add("ns_per_record_median").add(median, 4);
  table.new_row().add("ns_per_record_min").add(ns.front(), 4);
  table.new_row().add("ns_per_record_max").add(ns.back(), 4);
  table.new_row().add("allocs_per_record").add(allocs_per_record, 4);
  table.new_row().add("publishes").add(static_cast<long long>(publishes));
  bench::print_table(table);

  json.set("store_lane", "ns_per_record", median);
  json.set("store_lane", "ns_per_record_min", ns.front());
  json.set("store_lane", "allocs_per_record", allocs_per_record);
  json.set("store_lane", "records", static_cast<double>(stream.size()));
  json.set_raw("store_lane", "provenance", bench::provenance_json());
}

void report() {
  bench::JsonReport json{"BENCH_serve.json"};
  // The soak first: its rss_peak_mb is the process high-water mark, which
  // the store lane's 20 MiB record stream would otherwise raise.
  soak(json);
  store_lane(json);
  json.write();
}

// Microbenchmarks: the bare ingest hot path and one full query round.
void BM_StoreIngest(benchmark::State& state) {
  serve::StoreConfig config = soak_config();
  config.shards = 1;
  serve::TelemetryStore store{config};
  stats::Xoshiro256 rng(kSeed);
  serve::IngestRecord rec;
  rec.in_range = true;
  rec.valid = true;
  std::uint64_t k = 0;
  for (auto _ : state) {
    rec.site = static_cast<std::uint32_t>(k % kSites);
    rec.timestamp = Picoseconds{static_cast<double>(k) * 10000.0};
    rec.volts = 1.0 - 0.01 * rng.uniform01();
    rec.latency_us = 0.2;
    store.ingest(rec);
    ++k;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StoreIngest);

void BM_QueryRound(benchmark::State& state) {
  serve::StoreConfig config = soak_config();
  config.shards = 1;
  serve::TelemetryStore store{config};
  stats::Xoshiro256 rng(kSeed);
  for (std::uint64_t k = 0; k < 100000; ++k) {
    serve::IngestRecord rec;
    rec.site = static_cast<std::uint32_t>(k % kSites);
    rec.timestamp = Picoseconds{static_cast<double>(k) * 10000.0};
    rec.volts = 1.0 - 0.01 * rng.uniform01();
    rec.latency_us = 0.2;
    rec.in_range = true;
    rec.valid = true;
    store.ingest(rec);
  }
  store.publish_all();
  serve::QueryEngine q(store);
  for (auto _ : state) {
    q.refresh();
    double acc = q.voltage_quantile(0.99) + q.latency_quantile(0.99);
    const auto worst = q.top_droop(8);
    acc += worst.empty() ? 0.0 : worst.front().droop;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_QueryRound);

}  // namespace
}  // namespace psnt

PSNT_BENCH_MAIN(psnt::report)
