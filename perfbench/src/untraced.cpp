// Untraced run: one checked repetition, then timed repetitions of the same
// fixed-size scan for the requested wall time. Every timed repetition must
// reproduce the checked one's output digest.
#include <cstdio>

#include "runs.h"

namespace perfbench {

namespace {

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, a, b, c);
  return buf;
}

struct Tally {
  std::vector<double> setup_s;
  std::vector<double> samples_per_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

void finish(const RunArgs& args, const Accuracy& acc, std::uint64_t digest,
            const Tally& tally, RunOutput& out) {
  const double per_rep_attempted =
      static_cast<double>(tally.attempted) /
      static_cast<double>(tally.samples_per_s.size());
  const double delivered_share =
      static_cast<double>(acc.delivered) / per_rep_attempted;
  out.metrics.set("samples_per_s", median(tally.samples_per_s), "1/s");
  out.metrics.set("setup_s", median(tally.setup_s), "s");
  out.metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
  out.metrics.set("rail_err_mv_mean", acc.rail_err_mv_mean, "mV");
  out.metrics.set("in_range_share", acc.in_range_share, "share");
  out.metrics.set("delivered_share", delivered_share, "share");
  out.attempted = tally.attempted;
  out.failed = tally.failed;

  char buf[256];
  std::snprintf(buf, sizeof buf, "digest: %s %016llx", args.spec->name,
                static_cast<unsigned long long>(digest));
  out.info.emplace_back(buf);
  out.info.push_back(fmt(
      "failed_share: %.6f (samples lost or dropped / attempted)",
      1.0 - delivered_share));
  out.info.push_back(fmt(
      "accuracy: rail_err_mv_mean %.4f mV over %.0f in-range samples, "
      "in_range_share %.6f",
      acc.rail_err_mv_mean, static_cast<double>(acc.in_range),
      acc.in_range_share));
  out.info.push_back(fmt(
      "samples_per_s: median %.6g, quartiles %.6g .. %.6g",
      median(tally.samples_per_s), quantile(tally.samples_per_s, 0.25),
      quantile(tally.samples_per_s, 0.75)));
  out.info.push_back(fmt("timed repetitions: %.0f, setup_s median %.6g",
                         static_cast<double>(tally.samples_per_s.size()),
                         median(tally.setup_s)));
}

RunOutput run_grid(const RunArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  const scan::Floorplan fp = make_floorplan(spec);
  const std::uint64_t attempted_per_rep =
      static_cast<std::uint64_t>(fp.site_count()) * spec.samples;

  Accuracy acc;
  std::uint64_t digest = 0;
  {
    const GridRep first = run_grid_rep(spec, fp, args.seed, spec.workers);
    check_grid(spec, fp, args.seed, first);
    acc = grid_accuracy(fp, args.seed, first);
    digest = grid_digest(first.result);
  }

  Tally tally;
  std::vector<double> query_us;
  repeat_for(args.seconds, [&] {
    const GridRep rep = run_grid_rep(spec, fp, args.seed, spec.workers);
    check(grid_digest(rep.result) == digest,
          "a timed repetition's output differs from the checked one");
    const std::uint64_t got = delivered(rep.result);
    tally.setup_s.push_back(rep.setup_s);
    tally.samples_per_s.push_back(static_cast<double>(got) / rep.run_s);
    tally.attempted += attempted_per_rep;
    // Samples the fault storm took are the workload's expected outcome
    // (checked against the 1-worker reference); anything else is a failure.
    tally.failed += attempted_per_rep - got - rep.result.lost;
    query_us.insert(query_us.end(), rep.queries.latency_us.begin(),
                    rep.queries.latency_us.end());
  });

  RunOutput out;
  finish(args, acc, digest, tally, out);
  if (spec.query_client) {
    out.info.push_back(fmt(
        "queries: query_p50_us %.4f query_p99_us %.4f over %.0f queries "
        "(open loop, 1e4/s, timed from due time)",
        quantile(query_us, 0.5), quantile(query_us, 0.99),
        static_cast<double>(query_us.size())));
  }
  return out;
}

RunOutput run_fleet(const RunArgs& args) {
  const WorkloadSpec& spec = *args.spec;
  const psnt::fleet::FleetConfig config = fleet_config(spec, args.seed);

  Accuracy acc;
  std::uint64_t digest = 0;
  {
    const FleetRep first = run_fleet_rep(config);
    acc = check_fleet(config, first.result);
    digest = fleet_digest(first.result);
  }

  Tally tally;
  repeat_for(args.seconds, [&] {
    const FleetRep rep = run_fleet_rep(config);
    check(rep.result.completed && rep.result.frame_errors == 0,
          "a timed fleet repetition failed");
    check(fleet_digest(rep.result) == digest,
          "a timed repetition's output differs from the checked one");
    tally.setup_s.push_back(rep.setup_s);
    tally.samples_per_s.push_back(
        static_cast<double>(rep.result.samples_valid) / rep.run_s);
    tally.attempted += rep.result.samples_expected;
    tally.failed += rep.result.samples_expected - rep.result.samples_valid;
  });

  RunOutput out;
  finish(args, acc, digest, tally, out);
  return out;
}

}  // namespace

RunOutput run_untraced(const RunArgs& args) {
  return args.spec->kind == Kind::kFleetStream ? run_fleet(args)
                                               : run_grid(args);
}

}  // namespace perfbench
