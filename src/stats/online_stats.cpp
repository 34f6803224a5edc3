#include "stats/online_stats.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace psnt::stats {

void OnlineStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::add_span(const double* xs, std::size_t n) {
  if (n == 0) return;
  OnlineStats span;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += xs[i];
    span.min_ = std::min(span.min_, xs[i]);
    span.max_ = std::max(span.max_, xs[i]);
  }
  span.n_ = n;
  span.mean_ = sum / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = xs[i] - span.mean_;
    span.m2_ += d * d;
  }
  merge(span);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  PSNT_CHECK(hi > lo, "histogram range must be non-empty");
  PSNT_CHECK(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) { add_repeated(x, 1); }

void Histogram::add_span(const double* xs, std::size_t n) {
  for (std::size_t i = 0; i < n;) {
    std::size_t run = 1;
    while (i + run < n && xs[i + run] == xs[i]) ++run;
    add_repeated(xs[i], run);
    i += run;
  }
}

void Histogram::add_repeated(double x, std::size_t n) {
  total_ += n;
  if (x < lo_) {
    underflow_ += n;
    return;
  }
  if (x >= hi_) {
    overflow_ += n;
    return;
  }
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto bin = static_cast<std::size_t>((x - lo_) / width);
  if (bin >= counts_.size()) bin = counts_.size() - 1;  // fp edge
  counts_[bin] += n;
}

double Histogram::bin_lo(std::size_t bin) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  return bin_lo(bin) + (hi_ - lo_) / static_cast<double>(counts_.size());
}

double Histogram::quantile(double q) const {
  PSNT_CHECK(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  const std::size_t in_range = total_ - underflow_ - overflow_;
  if (in_range == 0) return lo_;
  const double target = q * static_cast<double>(in_range);
  double cumulative = 0.0;
  for (std::size_t bin = 0; bin < counts_.size(); ++bin) {
    const double next = cumulative + static_cast<double>(counts_[bin]);
    if (next >= target) {
      const double frac =
          counts_[bin] == 0
              ? 0.0
              : (target - cumulative) / static_cast<double>(counts_[bin]);
      return bin_lo(bin) + frac * (bin_hi(bin) - bin_lo(bin));
    }
    cumulative = next;
  }
  return hi_;
}

}  // namespace psnt::stats
