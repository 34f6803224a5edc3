// Streaming statistics (Welford) and fixed-bin histograms.
//
// Used by the PDN solver to characterise droop waveforms and by benches to
// summarise sweep series without storing them.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace psnt::stats {

class OnlineStats {
 public:
  void add(double x);
  // Adds xs[0..n). Equal to n add() calls up to rounding: the span's own
  // mean and squared deviations are taken in two plain passes and merged
  // in, which avoids add()'s loop-carried division (the serial cost of a
  // long run of add() calls).
  void add_span(const double* xs, std::size_t n);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double range() const { return n_ ? max_ - min_ : 0.0; }

  // Merges another accumulator (parallel Welford combine).
  void merge(const OnlineStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

class Histogram {
 public:
  // [lo, hi) split into `bins` equal bins; out-of-range samples are counted
  // in underflow/overflow.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  // Adds xs[0..n): the same counts as n add() calls, with one bin decision
  // per run of equal values.
  void add_span(const double* xs, std::size_t n);

  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  [[nodiscard]] double bin_hi(std::size_t bin) const;

  // Linear-interpolated quantile over the in-range mass, q in [0,1].
  [[nodiscard]] double quantile(double q) const;

 private:
  void add_repeated(double x, std::size_t n);

  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace psnt::stats
