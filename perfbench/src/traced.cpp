// Traced run: per-layer attribution, timed from outside the program.
//
// 1. Set-up layers: the first calib::calibrated() call and one
//    cut::make_scenario solve.
// 2. A checked repetition, then untraced repetitions of the workload (the
//    baseline for the trace overhead and the drain residual) and, on grid
//    workloads, the same scan at 1 and 2 workers.
// 3. One traced repetition of the real pipeline. On the grid, a
//    ScanGridConfig::engine_factory decorator times every capture call
//    (and every structural engine build) of every site; the fleet's run is
//    timed whole, and its capture replayed site by site through
//    FleetCoordinator::capture_site.
// 4. The delivered samples are replayed, in production order, through the
//    drain-side and wire functions: SpscRing span transfer between two
//    threads, StreamingEncoder::encode_span, DecodeLadder::decode_span,
//    TelemetryStore::ingest beside an open-loop query client, FrameWriter,
//    FrameParser and a socketpair.
// 5. Layers the workload does not run (a structural engine, a fleet) are
//    measured by a small probe on the workload's own rails, so every metric
//    is a measurement on every workload; the README maps which of them
//    attribute the workload's end-to-end numbers.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>

#include "calib/fit.h"
#include "cut/scenarios.h"
#include "grid/spsc_ring.h"
#include "net/socket.h"
#include "net/wire.h"
#include "runs.h"
#include "serve/query.h"

namespace perfbench {

namespace {

using namespace psnt;

constexpr std::size_t kDrainChunk = 256;  // the grid drain's pop size
constexpr std::size_t kReplayRingCapacity = 256;
constexpr std::size_t kScalingReps = 3;
constexpr double kMinQueryReplaySeconds = 0.25;
constexpr std::size_t kStructuralProbeMeasures = 96;
constexpr std::size_t kFleetProbeSites = 16;
constexpr std::size_t kFleetProbeSamples = 256;
constexpr int kSocketDeadlineMs = 5000;

// --- the capture decorator ------------------------------------------------

// Per-site capture accounting; each slot is written by the one worker
// thread that owns the site and read after ScanGrid::run joins the pool.
struct SiteSlot {
  std::uint64_t capture_ns = 0;
  std::uint64_t calls = 0;
  std::uint64_t samples = 0;
  std::uint64_t build_ns = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t sim_allocs = 0;
  std::vector<Span> spans;
};

// Forwards every IMeasureEngine call to the grid's own engine and times the
// capture entry points. Each batch call gets a span; single-sample calls
// (the chaos path measures once per attempt) share one span per
// kSpanCalls consecutive calls of the site, from the first call's start to
// the last one's end. The slot's totals count every call exactly.
class TimedEngine final : public core::IMeasureEngine {
 public:
  TimedEngine(core::EngineHandle inner, SiteSlot& slot, SpanLog& log,
              std::uint64_t parent, std::uint32_t track)
      : inner_(std::move(inner)),
        slot_(slot),
        log_(log),
        parent_(parent),
        track_(track) {}
  ~TimedEngine() override { flush_single_calls(); }
  TimedEngine(const TimedEngine&) = delete;
  TimedEngine& operator=(const TimedEngine&) = delete;

  core::EngineContext& context() override { return inner_->context(); }
  [[nodiscard]] std::size_t word_bits() const override {
    return inner_->word_bits();
  }

  core::Measurement measure(const core::MeasureRequest& req) override {
    const std::uint64_t t0 = now_ns();
    core::Measurement m = inner_->measure(req);
    finish(t0, 1);
    return m;
  }
  void measure_batch(const core::MeasureRequest& first, Picoseconds interval,
                     std::size_t count,
                     std::vector<core::Measurement>& out) override {
    const std::uint64_t t0 = now_ns();
    inner_->measure_batch(first, interval, count, out);
    finish(t0, count);
  }
  [[nodiscard]] bool prefers_batch() const override {
    return inner_->prefers_batch();
  }
  [[nodiscard]] bool supports_raw_samples() const override {
    return inner_->supports_raw_samples();
  }
  core::RawSample measure_raw(const core::MeasureRequest& req) override {
    const std::uint64_t t0 = now_ns();
    core::RawSample s = inner_->measure_raw(req);
    finish(t0, 1);
    return s;
  }
  void measure_raw_batch(const core::MeasureRequest& first,
                         Picoseconds interval, std::size_t count,
                         std::vector<core::RawSample>& out) override {
    const std::uint64_t t0 = now_ns();
    inner_->measure_raw_batch(first, interval, count, out);
    finish(t0, count);
  }
  [[nodiscard]] bool supports_code_trim() const override {
    return inner_->supports_code_trim();
  }
  [[nodiscard]] bool supports_voting() const override {
    return inner_->supports_voting();
  }
  core::VoltageBin decode(const core::ThermoWord& word,
                          core::DelayCode code) override {
    return inner_->decode(word, code);
  }
  [[nodiscard]] core::EncodedWord encode(
      const core::ThermoWord& word) const override {
    return inner_->encode(word);
  }
  core::EngineBatchStats take_batch_stats() override {
    const core::EngineBatchStats stats = inner_->take_batch_stats();
    slot_.sim_events += stats.sim_events;
    slot_.sim_allocs += stats.sim_allocs;
    return stats;
  }

 private:
  static constexpr std::size_t kSpanCalls = 96;

  void finish(std::uint64_t t0, std::size_t samples) {
    const std::uint64_t t1 = now_ns();
    slot_.capture_ns += t1 - t0;
    ++slot_.calls;
    slot_.samples += samples;
    if (samples > 1) {
      slot_.spans.push_back(
          Span{"core.capture", log_.next_id(), parent_, t0, t1, track_});
      return;
    }
    if (single_calls_ == 0) single_start_ = t0;
    single_end_ = t1;
    if (++single_calls_ == kSpanCalls) flush_single_calls();
  }

  void flush_single_calls() {
    if (single_calls_ == 0) return;
    slot_.spans.push_back(Span{"core.capture", log_.next_id(), parent_,
                               single_start_, single_end_, track_});
    single_calls_ = 0;
  }

  core::EngineHandle inner_;
  SiteSlot& slot_;
  SpanLog& log_;
  std::uint64_t parent_;
  std::uint32_t track_;
  std::size_t single_calls_ = 0;
  std::uint64_t single_start_ = 0;
  std::uint64_t single_end_ = 0;
};

// Builds the engine the grid would have built for the site (behavioral:
// sharing the prewarmed firing ladders of `prototype`, as the grid does
// across its sites), wrapped in a TimedEngine.
grid::EngineFactory decorating_factory(const WorkloadSpec& spec,
                                       std::vector<SiteSlot>& slots,
                                       SpanLog& log, std::uint64_t parent,
                                       const core::IMeasureEngine* prototype) {
  const bool structural = spec.kind == Kind::kGridStructural;
  const core::ThermometerConfig thermometer{};
  return [structural, thermometer, &slots, &log, parent, prototype](
             std::uint32_t site_id, const analog::RailPair& rails,
             const core::EngineSiteOptions& options) -> core::EngineHandle {
    check(site_id < slots.size(), "site id outside the floorplan");
    SiteSlot& slot = slots[site_id];
    const auto& model = calib::calibrated().model;
    const std::uint64_t t0 = now_ns();
    core::EngineHandle inner;
    if (structural) {
      inner = core::make_structural_engine(
          calib::make_paper_array(model),
          core::PulseGenerator{model.pg_config()}, rails,
          thermometer.control_period, options);
    } else {
      inner = core::make_behavioral_engine(
          calib::make_paper_engine(model, thermometer), rails, options);
      (void)core::share_sense_ladders(*inner, *prototype);
    }
    const std::uint64_t t1 = now_ns();
    slot.build_ns += t1 - t0;
    slot.spans.push_back(Span{"core.engine_build", log.next_id(), parent, t0,
                              t1, site_id + 1});
    return std::make_unique<TimedEngine>(std::move(inner), slot, log, parent,
                                         site_id + 1);
  };
}

// --- replays --------------------------------------------------------------

// Delivered samples of a grid run in the order the workers produce them:
// batch by batch, site by site.
std::vector<core::RawSample> grid_stream(const grid::RunResult& result,
                                         std::size_t batch) {
  std::vector<core::RawSample> out;
  const std::size_t samples =
      result.sites.empty() ? 0 : result.sites.front().samples.size();
  for (std::size_t base = 0; base < samples; base += batch) {
    const std::size_t end = std::min(samples, base + batch);
    for (std::size_t i = 0; i < result.sites.size(); ++i) {
      const grid::SiteResult& site = result.sites[i];
      for (std::size_t k = base; k < end; ++k) {
        if (!site.valid[k]) continue;
        const core::Measurement& m = site.samples[k];
        core::RawSample s;
        s.site_id = static_cast<std::uint32_t>(i);
        s.sample_index = static_cast<std::uint32_t>(k);
        s.timestamp = m.timestamp;
        s.target = m.target;
        s.code = m.code;
        s.word = m.word;
        out.push_back(s);
      }
    }
  }
  return out;
}

struct Replay {
  double ring_ns = 0.0;
  double enc_ns = 0.0;
  double decode_ns = 0.0;
  double ingest_ns = 0.0;   // non-publishing ingest calls
  double publish_ns = 0.0;  // ingest calls that published
  std::uint64_t ingest_calls = 0;
  std::uint64_t publish_calls = 0;
  QueryStats queries;
  double frame_encode_ns = 0.0;
  double frame_parse_ns = 0.0;
  double socket_ns = 0.0;
  std::size_t wire_bytes = 0;
};

void replay_codec(const std::vector<core::RawSample>& stream, SpanLog& log,
                  std::uint64_t parent, Replay& r,
                  std::vector<core::VoltageBin>& bins) {
  const std::size_t n = stream.size();
  std::vector<core::ThermoWord> words(n);
  std::vector<core::DelayCode> codes(n);
  for (std::size_t i = 0; i < n; ++i) {
    words[i] = stream[i].word;
    codes[i] = stream[i].code;
  }
  std::vector<core::EncodedWord> encoded(kDrainChunk);
  core::StreamingEncoder encoder;
  for (std::size_t off = 0; off < n; off += kDrainChunk) {
    const std::size_t count = std::min(kDrainChunk, n - off);
    const std::uint64_t t0 = now_ns();
    encoder.encode_span(words.data() + off, count, encoded.data());
    const std::uint64_t t1 = now_ns();
    r.enc_ns += static_cast<double>(t1 - t0);
    log.add("core.enc", parent, t0, t1, kReplayTrack);
  }
  const core::DecodeLadder ladder =
      calib::make_paper_decode_ladder(calib::calibrated().model);
  bins.assign(n, core::VoltageBin{});
  for (std::size_t off = 0; off < n; off += kDrainChunk) {
    const std::size_t count = std::min(kDrainChunk, n - off);
    const std::uint64_t t0 = now_ns();
    ladder.decode_span(words.data() + off, codes.data() + off, count,
                       bins.data() + off);
    const std::uint64_t t1 = now_ns();
    r.decode_ns += static_cast<double>(t1 - t0);
    log.add("core.decode", parent, t0, t1, kReplayTrack);
  }
}

// Worker-side span pushes (the grid's capture batch) against drain-side
// chunk pops, one thread each; the time includes waiting on a full or
// empty ring.
void replay_ring(const std::vector<core::RawSample>& stream,
                 std::size_t batch, SpanLog& log, std::uint64_t parent,
                 Replay& r) {
  grid::SpscRing<core::RawSample> ring(kReplayRingCapacity);
  std::vector<core::RawSample> source = stream;
  std::vector<core::RawSample> sink(kDrainChunk);
  const std::size_t n = source.size();
  const std::uint64_t t0 = now_ns();
  {
    std::jthread producer([&] {
      for (std::size_t off = 0; off < n;) {
        const std::size_t count = std::min(batch, n - off);
        std::size_t done = 0;
        while (done < count) {
          const std::size_t pushed =
              ring.try_push_span(source.data() + off + done, count - done);
          if (pushed == 0) std::this_thread::yield();
          done += pushed;
        }
        off += count;
      }
    });
    std::size_t got = 0;
    while (got < n) {
      const std::size_t popped = ring.try_pop_span(sink.data(), kDrainChunk);
      if (popped == 0) std::this_thread::yield();
      got += popped;
    }
  }
  const std::uint64_t t1 = now_ns();
  r.ring_ns = static_cast<double>(t1 - t0);
  log.add("grid.ring", parent, t0, t1, kReplayTrack);
}

// Store ingest on this thread beside the open-loop query client, on a
// fresh store configured as the grid's.
void replay_store(const std::vector<core::RawSample>& stream,
                  const std::vector<core::VoltageBin>& bins, std::size_t sites,
                  SpanLog& log, std::uint64_t parent, Replay& r) {
  serve::StoreConfig config;
  config.site_count = sites;
  config.shards = 1;
  config.v_nominal = 1.0;
  serve::TelemetryStore store(config);
  std::vector<serve::IngestRecord> records(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    serve::IngestRecord& rec = records[i];
    rec.site = stream[i].site_id;
    rec.timestamp = stream[i].timestamp;
    rec.volts = bins[i].estimate().value();
    rec.in_range = bins[i].in_range();
  }

  const Clock::time_point t_start = Clock::now();
  {
    const QueryClient client(store, sites, true, r.queries);
    constexpr std::size_t kChunk = 1024;
    for (std::size_t off = 0; off < records.size(); off += kChunk) {
      const std::size_t end = std::min(records.size(), off + kChunk);
      const std::uint64_t chunk_id = log.next_id();
      const std::uint64_t c0 = now_ns();
      for (std::size_t i = off; i < end; ++i) {
        const std::uint64_t before = store.publishes();
        const std::uint64_t t0 = now_ns();
        store.ingest(records[i]);
        const std::uint64_t t1 = now_ns();
        if (store.publishes() != before) {
          r.publish_ns += static_cast<double>(t1 - t0);
          ++r.publish_calls;
          log.add("serve.publish", chunk_id, t0, t1, 0);
        } else {
          r.ingest_ns += static_cast<double>(t1 - t0);
          ++r.ingest_calls;
        }
      }
      log.add("serve.ingest", parent, c0, now_ns(), 0, chunk_id);
    }
    while (seconds_since(t_start) < kMinQueryReplaySeconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
}

void replay_wire(const std::vector<core::RawSample>& stream,
                 std::size_t span_samples, SpanLog& log, std::uint64_t parent,
                 Replay& r) {
  const std::size_t n = stream.size();
  std::vector<std::uint8_t> wire;
  wire.reserve(n * net::kSampleWireBytes +
               (n / span_samples + 1) *
                   (net::kFrameHeaderBytes + net::kSpanHeaderBytes));
  {
    const std::uint64_t t0 = now_ns();
    std::uint32_t seq = 0;
    for (std::size_t off = 0; off < n; off += span_samples) {
      const std::size_t count = std::min(span_samples, n - off);
      net::SpanHeader header;
      header.seq = seq++;
      net::FrameWriter::append_sample_span(wire, header, stream.data() + off,
                                           count);
    }
    const std::uint64_t t1 = now_ns();
    r.frame_encode_ns = static_cast<double>(t1 - t0);
    log.add("net.frame_encode", parent, t0, t1, kReplayTrack);
  }
  r.wire_bytes = wire.size();

  {
    constexpr std::size_t kFeed = 1U << 16;  // the fleet aggregator's read
    net::FrameParser parser;
    core::RawSample sample;
    std::size_t decoded = 0;
    bool same = true;
    const std::uint64_t t0 = now_ns();
    for (std::size_t off = 0; off < wire.size(); off += kFeed) {
      parser.feed(wire.data() + off, std::min(kFeed, wire.size() - off));
      while (auto frame = parser.next()) {
        net::SpanHeader header;
        std::size_t count = 0;
        check(!net::decode_span_header(*frame, header) &&
                  !net::span_sample_count(*frame, count),
              "replayed span frame failed to parse");
        for (std::size_t i = 0; i < count; ++i) {
          check(!net::decode_span_sample(*frame, i, sample),
                "replayed span sample failed to parse");
          same = same && decoded < n && sample.word == stream[decoded].word &&
                 sample.site_id == stream[decoded].site_id;
          ++decoded;
        }
      }
    }
    const std::uint64_t t1 = now_ns();
    check(!parser.failed() && decoded == n && same,
          "wire round trip changed the replayed samples");
    r.frame_parse_ns = static_cast<double>(t1 - t0);
    log.add("net.frame_parse", parent, t0, t1, kReplayTrack);
  }

  {
    auto [writer_end, reader_end] = net::socketpair_stream();
    std::vector<std::uint8_t> buf(1U << 16);
    net::IoStatus send_status = net::IoStatus::kOk;
    net::IoStatus recv_status = net::IoStatus::kOk;
    std::size_t received = 0;
    const std::uint64_t t0 = now_ns();
    {
      std::jthread writer([&] {
        constexpr std::size_t kFlush = 16 * 1024;  // BufferedWriter batch
        for (std::size_t off = 0; off < wire.size(); off += kFlush) {
          send_status =
              net::send_all(writer_end, wire.data() + off,
                            std::min(kFlush, wire.size() - off),
                            kSocketDeadlineMs);
          if (send_status != net::IoStatus::kOk) return;
        }
      });
      while (received < wire.size()) {
        std::size_t got = 0;
        recv_status = net::recv_some(reader_end, buf.data(), buf.size(),
                                     kSocketDeadlineMs, got);
        // A writer stuck on a full socket gives up at its own deadline.
        if (recv_status != net::IoStatus::kOk) break;
        received += got;
      }
    }
    const std::uint64_t t1 = now_ns();
    check(send_status == net::IoStatus::kOk &&
              recv_status == net::IoStatus::kOk && received == wire.size(),
          "socket replay did not move every byte");
    r.socket_ns = static_cast<double>(t1 - t0);
    log.add("net.socket", parent, t0, t1, kReplayTrack);
  }
}

// --- probes for layers the workload does not run ---------------------------

struct StructuralCosts {
  double build_ms_per_site = 0.0;
  double us_per_measure = 0.0;
  double events_per_measure = 0.0;
  double allocs_per_measure = 0.0;
};

StructuralCosts structural_probe(const analog::RailSource* vdd, SpanLog& log,
                                 std::uint64_t parent) {
  const auto& model = calib::calibrated().model;
  const core::ThermometerConfig thermometer{};
  core::EngineSiteOptions options;
  options.code_policy.initial = core::DelayCode{3};
  const std::uint64_t t0 = now_ns();
  core::EngineHandle engine = core::make_structural_engine(
      calib::make_paper_array(model), core::PulseGenerator{model.pg_config()},
      analog::RailPair{vdd, nullptr}, thermometer.control_period, options);
  const std::uint64_t t1 = now_ns();
  std::vector<core::RawSample> out;
  engine->measure_raw_batch(core::MeasureRequest{},
                            Picoseconds{thermometer.control_period.value() * 6},
                            kStructuralProbeMeasures, out);
  const std::uint64_t t2 = now_ns();
  const core::EngineBatchStats stats = engine->take_batch_stats();
  log.add("core.engine_build", parent, t0, t1);
  log.add("core.capture", parent, t1, t2);
  const auto n = static_cast<double>(kStructuralProbeMeasures);
  StructuralCosts c;
  c.build_ms_per_site = static_cast<double>(t1 - t0) * 1e-6;
  c.us_per_measure = static_cast<double>(t2 - t1) * 1e-3 / n;
  c.events_per_measure = static_cast<double>(stats.sim_events) / n;
  c.allocs_per_measure = static_cast<double>(stats.sim_allocs) / n;
  return c;
}

struct FleetCosts {
  double span_p50_us = 0.0;
  double frames_per_ksample = 0.0;
  double frame_errors = 0.0;
};

FleetCosts fleet_costs(const fleet::FleetResult& r) {
  std::vector<double> lat;
  lat.reserve(r.span_latency_ns.size());
  for (const std::uint64_t ns : r.span_latency_ns) {
    lat.push_back(static_cast<double>(ns) * 1e-3);
  }
  FleetCosts c;
  c.span_p50_us = median(lat);
  c.frames_per_ksample = 1e3 * static_cast<double>(r.frames) /
                         static_cast<double>(r.samples_expected);
  c.frame_errors = static_cast<double>(r.frame_errors);
  return c;
}

FleetCosts fleet_probe(std::uint64_t seed, SpanLog& log, std::uint64_t parent) {
  fleet::FleetConfig config;
  config.sites = kFleetProbeSites;
  config.samples_per_site = kFleetProbeSamples;
  config.seed = seed;
  config.workers = 1;
  config.spares = 0;
  config.aggregator_threads = 1;
  const FleetRep rep = run_fleet_rep(config);
  check(rep.result.completed && rep.result.frame_errors == 0,
        "fleet probe failed");
  log.add("fleet.run", parent, rep.run_start_ns, rep.run_end_ns);
  return fleet_costs(rep.result);
}

// --- the traced run -------------------------------------------------------

// Numbers the workload-specific phase hands to the common attribution.
struct Phase {
  std::vector<core::RawSample> stream;  // delivered samples, production order
  double untraced_run_s = 0.0;          // median baseline repetition
  double traced_run_s = 0.0;
  double capture_ns = 0.0;  // Σ capture self time
  double capture_calls = 0.0;
  double scaling = 0.0;  // 2 workers over 1; 0 = not a grid
  double ring_stalls_per_ksample = 0.0;
  double retries_per_ksample = 0.0;
  double vote_overrides_per_ksample = 0.0;
  double faults_per_ksample = 0.0;
  double quarantined_sites = 0.0;
  StructuralCosts structural;  // measured by the workload or by a probe
  FleetCosts fleet_costs;       // likewise
  std::unique_ptr<analog::RailSource> probe_rail;  // site 0's true rail
};

double median_rate(const WorkloadSpec& spec, const scan::Floorplan& fp,
                   std::uint64_t seed, std::size_t threads) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < kScalingReps; ++i) {
    const GridRep rep = run_grid_rep(spec, fp, seed, threads);
    rates.push_back(static_cast<double>(delivered(rep.result)) / rep.run_s);
  }
  return median(rates);
}

void grid_phase(const RunArgs& args, SpanLog& log, Phase& ph) {
  const WorkloadSpec& spec = *args.spec;
  const scan::Floorplan fp = make_floorplan(spec);
  const double attempted =
      static_cast<double>(fp.site_count() * spec.samples);
  std::uint64_t digest = 0;
  std::shared_ptr<const analog::SampledRail> waveform;
  {
    const GridRep first = run_grid_rep(spec, fp, args.seed, spec.workers);
    check_grid(spec, fp, args.seed, first);
    digest = grid_digest(first.result);
    waveform = first.waveform;
    const grid::RunResult& r = first.result;
    ph.retries_per_ksample = 1e3 * static_cast<double>(r.retries) / attempted;
    ph.vote_overrides_per_ksample =
        1e3 * static_cast<double>(r.vote_overrides) / attempted;
    ph.faults_per_ksample =
        1e3 * static_cast<double>(r.faults_injected) / attempted;
    ph.quarantined_sites = static_cast<double>(r.quarantined_sites);
  }

  std::vector<double> walls;
  std::vector<double> stalls;
  repeat_for(args.seconds / 2, [&] {
    const GridRep rep = run_grid_rep(spec, fp, args.seed, spec.workers);
    check(grid_digest(rep.result) == digest,
          "a baseline repetition's output differs from the checked one");
    walls.push_back(rep.run_s);
    stalls.push_back(1e3 * static_cast<double>(rep.result.ring_stalls) /
                     static_cast<double>(delivered(rep.result)));
  });
  ph.untraced_run_s = median(walls);
  ph.ring_stalls_per_ksample = median(stalls);
  ph.scaling = median_rate(spec, fp, args.seed, 2) /
               median_rate(spec, fp, args.seed, 1);

  // The traced repetition.
  std::vector<SiteSlot> slots(fp.site_count());
  for (std::size_t i = 0; i < fp.site_count(); ++i) {
    check(fp.sites()[i].id == i, "floorplan site ids are not 0..n-1");
  }
  const auto& model = calib::calibrated().model;
  const analog::ConstantRail nominal{Volt{1.0}};
  core::EngineSiteOptions proto_options;
  proto_options.code_policy.initial = grid_config(spec, args.seed, 1).code;
  const core::EngineHandle prototype = core::make_behavioral_engine(
      calib::make_paper_engine(model, core::ThermometerConfig{}),
      analog::RailPair{&nominal, nullptr}, proto_options);
  (void)core::prewarm_sense_ladders(*prototype,
                                    proto_options.code_policy.initial);
  const std::uint64_t run_id = log.next_id();
  const GridRep traced = run_grid_rep(
      spec, fp, args.seed, spec.workers,
      decorating_factory(spec, slots, log, run_id, prototype.get()));
  check(grid_digest(traced.result) == digest,
        "the decorated engines changed the scan's output");
  log.add("grid.run", 0, traced.run_start_ns, traced.run_end_ns, 0, run_id);
  ph.traced_run_s = traced.run_s;

  double build_ns = 0.0;
  double captured = 0.0;
  double events = 0.0;
  double allocs = 0.0;
  for (SiteSlot& slot : slots) {
    ph.capture_ns += static_cast<double>(slot.capture_ns);
    ph.capture_calls += static_cast<double>(slot.calls);
    captured += static_cast<double>(slot.samples);
    build_ns += static_cast<double>(slot.build_ns);
    events += static_cast<double>(slot.sim_events);
    allocs += static_cast<double>(slot.sim_allocs);
    log.merge(slot.spans);
  }
  ph.stream = grid_stream(traced.result, grid_config(spec, args.seed, 1).batch);
  if (spec.kind == Kind::kGridStructural) {
    ph.structural.build_ms_per_site =
        build_ns * 1e-6 / static_cast<double>(fp.site_count());
    ph.structural.us_per_measure = ph.capture_ns * 1e-3 / captured;
    ph.structural.events_per_measure = events / captured;
    ph.structural.allocs_per_measure = allocs / captured;
  }
  auto rng = grid::ScanGrid::site_rng(args.seed, fp.sites()[0].id);
  ph.probe_rail = grid_rails(fp, waveform)(fp.sites()[0], rng);
}

void fleet_phase(const RunArgs& args, SpanLog& log, Phase& ph) {
  const WorkloadSpec& spec = *args.spec;
  const fleet::FleetConfig config = fleet_config(spec, args.seed);
  std::uint64_t digest = 0;
  {
    const FleetRep first = run_fleet_rep(config);
    (void)check_fleet(config, first.result);
    digest = fleet_digest(first.result);
  }
  std::vector<double> walls;
  repeat_for(args.seconds / 2, [&] {
    const FleetRep rep = run_fleet_rep(config);
    check(fleet_digest(rep.result) == digest,
          "a baseline repetition's output differs from the checked one");
    walls.push_back(rep.run_s);
  });
  ph.untraced_run_s = median(walls);

  const FleetRep traced = run_fleet_rep(config);
  check(fleet_digest(traced.result) == digest,
        "the traced fleet run's output differs from the checked one");
  const std::uint64_t run_id =
      log.add("fleet.run", 0, traced.run_start_ns, traced.run_end_ns);
  ph.traced_run_s = traced.run_s;
  ph.fleet_costs = fleet_costs(traced.result);

  // The workers' capture, site by site into a reused scratch buffer, as
  // the fleet's capture thread runs it.
  std::vector<core::RawSample> scratch;
  for (std::uint32_t site = 0; site < config.sites; ++site) {
    scratch.clear();
    const std::uint64_t c0 = now_ns();
    fleet::FleetCoordinator::capture_site(
        config, site, 0, static_cast<std::uint32_t>(config.samples_per_site),
        scratch);
    const std::uint64_t c1 = now_ns();
    ph.capture_ns += static_cast<double>(c1 - c0);
    ph.capture_calls += 1.0;
    log.add("core.capture", run_id, c0, c1, site + 1);
    ph.stream.insert(ph.stream.end(), scratch.begin(), scratch.end());
  }
  ph.probe_rail = std::move(
      fleet::FleetCoordinator::make_site_engine(config, 0).vdd);
}

struct LayerName {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in print order.
const std::vector<LayerName>& per_layer_names() {
  static const std::vector<LayerName> names = {
      {"calib.fit_ms", "ms"},
      {"cut.scenario_solve_ms", "ms"},
      {"core.capture_ns_per_sample", "ns"},
      {"core.capture_calls_per_sample", "calls/sample"},
      {"core.structural_build_ms_per_site", "ms"},
      {"core.structural_us_per_measure", "us"},
      {"sim.events_per_measure", "count"},
      {"sim.allocs_per_measure", "count"},
      {"core.enc_ns_per_sample", "ns"},
      {"core.decode_ns_per_sample", "ns"},
      {"grid.ring_stalls_per_ksample", "count"},
      {"grid.ring_ns_per_sample", "ns"},
      {"grid.drain_residual_ns_per_sample", "ns"},
      {"grid.scaling_2w_vs_1w", "ratio"},
      {"grid.retries_per_ksample", "count"},
      {"grid.vote_overrides_per_ksample", "count"},
      {"grid.faults_per_ksample", "count"},
      {"grid.quarantined_sites", "count"},
      {"serve.ingest_ns", "ns"},
      {"serve.publish_us", "us"},
      {"serve.publishes_per_ksample", "count"},
      {"serve.refresh_us", "us"},
      {"serve.latest_us", "us"},
      {"serve.top_droop_us", "us"},
      {"serve.quantile_us", "us"},
      {"serve.query_late_us_p99", "us"},
      {"net.frame_encode_ns_per_sample", "ns"},
      {"net.frame_parse_ns_per_sample", "ns"},
      {"net.socket_ns_per_sample", "ns"},
      {"net.bytes_per_sample", "bytes"},
      {"fleet.span_p50_us", "us"},
      {"fleet.frames_per_ksample", "count"},
      {"fleet.frame_errors", "count"},
      {"trace.overhead_share", "share"},
      {"trace.coverage_share", "share"},
  };
  return names;
}

}  // namespace

RunOutput run_traced(const RunArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  SpanLog log;
  std::vector<std::optional<double>> values(per_layer_names().size());
  const auto set = [&](const char* name, double value) {
    for (std::size_t i = 0; i < per_layer_names().size(); ++i) {
      if (std::string(per_layer_names()[i].name) == name) {
        values[i] = value;
        return;
      }
    }
    check(false, std::string("unknown per-layer metric ") + name);
  };

  {
    const std::uint64_t t0 = now_ns();
    (void)calib::calibrated();
    const std::uint64_t t1 = now_ns();
    log.add("calib.fit", 0, t0, t1);
    set("calib.fit_ms", static_cast<double>(t1 - t0) * 1e-6);
    cut::ScenarioConfig scenario_config;
    scenario_config.horizon =
        Picoseconds{spec.horizon_ps > 0.0 ? spec.horizon_ps : 300000.0};
    scenario_config.seed = args.seed;
    const std::uint64_t t2 = now_ns();
    const cut::Scenario scenario = cut::make_scenario(
        cut::ScenarioKind::kPipelineWorkload, scenario_config);
    const std::uint64_t t3 = now_ns();
    check(scenario.vdd.size() > 1, "scenario solve produced no waveform");
    log.add("cut.scenario_solve", 0, t2, t3);
    set("cut.scenario_solve_ms", static_cast<double>(t3 - t2) * 1e-6);
  }

  Phase ph;
  if (spec.kind == Kind::kFleetStream) {
    fleet_phase(args, log, ph);
  } else {
    grid_phase(args, log, ph);
  }
  const double n = static_cast<double>(ph.stream.size());
  check(n > 0, "the traced run delivered no samples");

  const std::uint64_t replay_id = log.next_id();
  const std::uint64_t replay_t0 = now_ns();
  Replay r;
  std::vector<core::VoltageBin> bins;
  replay_codec(ph.stream, log, replay_id, r, bins);
  replay_ring(ph.stream, grid_config(spec, args.seed, 1).batch, log,
              replay_id, r);
  replay_store(ph.stream, bins, site_count(spec), log, replay_id, r);
  replay_wire(ph.stream, fleet::FleetConfig{}.span_samples, log, replay_id, r);
  log.add("replay", 0, replay_t0, now_ns(), 0, replay_id);

  const std::uint64_t probe_id = log.next_id();
  const std::uint64_t probe_t0 = now_ns();
  const bool fleet = spec.kind == Kind::kFleetStream;
  if (spec.kind != Kind::kGridStructural) {
    ph.structural = structural_probe(ph.probe_rail.get(), log, probe_id);
  }
  if (!fleet) ph.fleet_costs = fleet_probe(args.seed, log, probe_id);
  log.add("probe", 0, probe_t0, now_ns(), 0, probe_id);

  set("core.capture_ns_per_sample", ph.capture_ns / n);
  set("core.capture_calls_per_sample", ph.capture_calls / n);
  set("core.structural_build_ms_per_site", ph.structural.build_ms_per_site);
  set("core.structural_us_per_measure", ph.structural.us_per_measure);
  set("sim.events_per_measure", ph.structural.events_per_measure);
  set("sim.allocs_per_measure", ph.structural.allocs_per_measure);
  set("core.enc_ns_per_sample", r.enc_ns / n);
  set("core.decode_ns_per_sample", r.decode_ns / n);
  set("grid.ring_stalls_per_ksample", ph.ring_stalls_per_ksample);
  set("grid.ring_ns_per_sample", r.ring_ns / n);
  set("grid.scaling_2w_vs_1w", ph.scaling);
  set("grid.retries_per_ksample", ph.retries_per_ksample);
  set("grid.vote_overrides_per_ksample", ph.vote_overrides_per_ksample);
  set("grid.faults_per_ksample", ph.faults_per_ksample);
  set("grid.quarantined_sites", ph.quarantined_sites);

  const double store_ns = r.ingest_ns + r.publish_ns;
  set("serve.ingest_ns",
      r.ingest_calls > 0 ? r.ingest_ns / static_cast<double>(r.ingest_calls)
                         : 0.0);
  set("serve.publish_us", r.publish_calls > 0
                              ? r.publish_ns * 1e-3 /
                                    static_cast<double>(r.publish_calls)
                              : 0.0);
  set("serve.publishes_per_ksample",
      1e3 * static_cast<double>(r.publish_calls) / n);
  const auto queries = static_cast<double>(r.queries.latency_us.size());
  check(queries > 0, "the query client issued no queries");
  set("serve.refresh_us", r.queries.refresh_ns * 1e-3 / queries);
  set("serve.latest_us", r.queries.latest_ns * 1e-3 / queries);
  set("serve.top_droop_us", r.queries.top_droop_ns * 1e-3 / queries);
  set("serve.quantile_us", r.queries.quantile_ns * 1e-3 / queries);
  set("serve.query_late_us_p99", quantile(r.queries.late_us, 0.99));
  set("net.frame_encode_ns_per_sample", r.frame_encode_ns / n);
  set("net.frame_parse_ns_per_sample", r.frame_parse_ns / n);
  set("net.socket_ns_per_sample", r.socket_ns / n);
  set("net.bytes_per_sample", static_cast<double>(r.wire_bytes) / n);
  set("fleet.span_p50_us", ph.fleet_costs.span_p50_us);
  set("fleet.frames_per_ksample", ph.fleet_costs.frames_per_ksample);
  set("fleet.frame_errors", ph.fleet_costs.frame_errors);

  // The pipeline's lanes run in parallel and the slowest blocks the result.
  // Capture: capture self time spread over the capturing threads. Drain:
  // what the single consumer does (the grid's drain pass; the fleet
  // aggregator's receive, parse/CRC and ENC). Bridge: the fleet worker's
  // span framing, on its own thread.
  const double capture_lane_ns =
      ph.capture_ns / static_cast<double>(spec.workers);
  const double drain_ns =
      fleet ? r.socket_ns + r.frame_parse_ns + r.enc_ns
            : r.ring_ns + r.enc_ns + r.decode_ns + (spec.store ? store_ns : 0.0);
  const double bridge_ns = fleet ? r.frame_encode_ns : 0.0;
  set("grid.drain_residual_ns_per_sample",
      (ph.untraced_run_s * 1e9 - drain_ns) / n);
  set("trace.overhead_share", ph.traced_run_s / ph.untraced_run_s - 1.0);
  set("trace.coverage_share",
      std::max({capture_lane_ns, drain_ns, bridge_ns}) /
          (ph.traced_run_s * 1e9));

  RunOutput out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    check(values[i].has_value(), std::string("per-layer metric not measured: ") +
                                     per_layer_names()[i].name);
    out.metrics.set(per_layer_names()[i].name, *values[i],
                    per_layer_names()[i].unit);
  }
  out.attempted = static_cast<std::uint64_t>(n);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "trace: %zu spans, untraced run %.6f s, traced run %.6f s, "
                "lanes: capture %.6f s, drain %.6f s, bridge %.6f s",
                log.spans().size(), ph.untraced_run_s, ph.traced_run_s,
                capture_lane_ns * 1e-9, drain_ns * 1e-9, bridge_ns * 1e-9);
  out.info.emplace_back(buf);
  if (!args.trace_out.empty()) {
    check(log.write(args.trace_out), "cannot write the span file " +
                                         args.trace_out);
    out.info.push_back("trace: spans written to " + args.trace_out);
  }
  return out;
}

}  // namespace perfbench
