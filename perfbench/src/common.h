// Shared plumbing of the pipeline benchmark: clocks, order statistics, the
// process memory probe, output digests, the metric list printed as the
// result, and the in-memory span log of traced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::uint64_t now_ns();
[[nodiscard]] double seconds_since(Clock::time_point t0);

// Order statistics over a copy of `values` (empty input gives 0).
[[nodiscard]] double median(std::vector<double> values);
// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

// A failed correctness check: the run prints no numbers and exits non-zero.
class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};
void check(bool ok, const std::string& what);

// FNV-1a over 64-bit words: the per-workload output digest that lets runs
// of two commits be compared for exact equality.
class Digest {
 public:
  void add(std::uint64_t v);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Ordered name → (value, unit) list; names are unique.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// One traced interval: name, start, end and the span that caused it.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  // Where the span ran: 0 = main thread, 1 + site index for a site's
  // captures, kReplayTrack for the replay threads.
  std::uint32_t track = 0;
};

inline constexpr std::uint32_t kReplayTrack = 0xffffffffU;

// Spans live in per-thread vectors while a phase runs and are merged here
// after the threads join; ids come from one atomic counter so parents can be
// named across threads. Written out once, at the end of the run.
class SpanLog {
 public:
  [[nodiscard]] std::uint64_t next_id() { return next_.fetch_add(1) + 1; }
  // Records a finished span on the main thread; returns its id. `id` 0
  // draws a fresh one (pass a next_id() taken earlier when children had to
  // name the span before it ended).
  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint32_t track = 0, std::uint64_t id = 0);
  void merge(std::vector<Span>& spans);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // JSON-lines dump; returns false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::atomic<std::uint64_t> next_{0};
  std::vector<Span> spans_;
};

}  // namespace perfbench
