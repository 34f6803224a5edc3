// The two run modes. An untraced run times repeated fixed-size scans and
// reports the end-to-end metrics; a traced run reports the per-layer
// metrics, timed from outside the program around calls into its public
// functions, and writes its spans to a file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "pipeline.h"

namespace perfbench {

struct RunArgs {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string trace_out;  // span file of a traced run
};

struct RunOutput {
  MetricSet metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> info;  // printed before the result line
};

// Every repetition after the first is timed; the first is the checked one.
inline constexpr std::size_t kMinTimedReps = 3;

// Calls `rep` at least kMinTimedReps times and until `seconds` have passed.
template <typename Rep>
void repeat_for(double seconds, Rep&& rep) {
  const Clock::time_point t0 = Clock::now();
  for (std::size_t n = 0; n < kMinTimedReps || seconds_since(t0) < seconds;
       ++n) {
    rep();
  }
}

[[nodiscard]] RunOutput run_untraced(const RunArgs& args);
[[nodiscard]] RunOutput run_traced(const RunArgs& args);

}  // namespace perfbench
