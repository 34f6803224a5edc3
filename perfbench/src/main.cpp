// PSN monitoring-pipeline benchmark.
//
//   psnt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--git-sha SHA] [--source-digest HEX] [--trace-out PATH]
//
// Prints provenance, the calibration report, the output digest and other
// context lines, then, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A failed
// correctness check prints no result and exits with status 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "runs.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "psnt_perfbench: %s\nusage: psnt_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--git-sha SHA] "
               "[--source-digest HEX] [--trace-out PATH]\nworkloads:",
               why);
  for (const auto& spec : perfbench::all_specs()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fputc('\n', stderr);
  return 2;
}

void print_result(const perfbench::RunOutput& out) {
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  const auto& items = out.metrics.items();
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", items[i].name.c_str(), items[i].value,
                items[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  std::string workload;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0)) {
        return usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  args.spec = perfbench::find_spec(workload);
  if (args.spec == nullptr) return usage("unknown or missing --workload");
  if (!have_seed || args.seconds <= 0.0 || trace < 0) {
    return usage("--seed, --seconds and --trace are required");
  }

  try {
    const perfbench::RunOutput out = trace == 1
                                         ? perfbench::run_traced(args)
                                         : perfbench::run_untraced(args);
    const auto calibration = perfbench::calibration_lines();
    std::printf("provenance: %s\n",
                perfbench::provenance_json(*args.spec, args.seed, git_sha,
                                           source_digest)
                    .c_str());
    for (const std::string& line : calibration) std::printf("%s\n", line.c_str());
    for (const std::string& line : out.info) std::printf("%s\n", line.c_str());
    print_result(out);
  } catch (const perfbench::CheckFailure& e) {
    std::fprintf(stderr, "psnt_perfbench: check failed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psnt_perfbench: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
