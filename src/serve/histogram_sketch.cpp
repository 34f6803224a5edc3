#include "serve/histogram_sketch.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace psnt::serve {

HistogramSketch::HistogramSketch(const SketchConfig& config)
    : config_(config) {
  PSNT_CHECK(config.alpha > 0.0 && config.alpha < 1.0,
             "sketch alpha must be in (0, 1)");
  PSNT_CHECK(config.min_value > 0.0, "sketch min_value must be positive");
  PSNT_CHECK(config.bucket_count > 0, "sketch needs at least one bucket");
  gamma_ = (1.0 + config.alpha) / (1.0 - config.alpha);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
  inv_min_ = 1.0 / config.min_value;
}

std::size_t HistogramSketch::bucket_index(double v) const {
  // ceil(log_gamma(v / min_value)), clamped into the fixed bucket range.
  const double r = std::log(v * inv_min_) * inv_log_gamma_;
  const auto i = static_cast<long long>(std::ceil(r));
  if (i < 0) return 0;
  const auto last = static_cast<long long>(config_.bucket_count) - 1;
  return static_cast<std::size_t>(std::min(i, last));
}

void HistogramSketch::cover(std::size_t i) {
  const std::size_t lo = size_ == 0 ? i : std::min(i, offset_);
  const std::size_t hi = size_ == 0 ? i : std::max(i, offset_ + size_ - 1);
  const std::size_t need = hi - lo + 1;
  const std::size_t shift = size_ == 0 ? 0 : offset_ - lo;  // new low buckets
  if (need <= kInlineBuckets) {
    // Still inline: slide the counts up by `shift`, zero the new buckets.
    if (shift > 0) {
      std::copy_backward(inline_.begin(), inline_.begin() + size_,
                         inline_.begin() + shift + size_);
      std::fill_n(inline_.begin(), shift, 0);
    }
    std::fill(inline_.begin() + shift + size_, inline_.begin() + need, 0);
  } else {
    if (need > heap_.capacity()) {
      // Geometric growth, capped at the full bucket range.
      heap_.reserve(std::min(config_.bucket_count,
                             std::max(need, 2 * heap_.capacity())));
    }
    if (heap_.empty()) heap_.assign(inline_.begin(), inline_.begin() + size_);
    heap_.insert(heap_.begin(), shift, 0);
    heap_.resize(need);
  }
  offset_ = lo;
  size_ = need;
}

void HistogramSketch::add(double v) {
  add(v, v <= 0.0 ? 0 : bucket_index(v));
}

void HistogramSketch::merge(const HistogramSketch& other) {
  PSNT_CHECK(config_ == other.config_,
             "cannot merge sketches with different configs");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  zero_count_ += other.zero_count_;
  sum_ += other.sum_;
  if (other.size_ == 0) return;
  cover(other.offset_);
  cover(other.offset_ + other.size_ - 1);
  std::uint64_t* dst = counts() + (other.offset_ - offset_);
  const std::uint64_t* src = other.counts();
  for (std::size_t k = 0; k < other.size_; ++k) dst[k] += src[k];
}

void HistogramSketch::reset() {
  heap_.clear();
  size_ = 0;
  count_ = 0;
  zero_count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double HistogramSketch::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double HistogramSketch::min() const { return count_ ? min_ : 0.0; }
double HistogramSketch::max() const { return count_ ? max_ : 0.0; }

double HistogramSketch::max_trackable() const {
  return config_.min_value *
         std::pow(gamma_, static_cast<double>(config_.bucket_count) - 1.0);
}

double HistogramSketch::bucket_estimate(std::size_t i) const {
  // Harmonic midpoint of (min·gamma^(i-1), min·gamma^i]: relative error to
  // any value in the bucket is ≤ (gamma-1)/(gamma+1) = alpha.
  return config_.min_value * std::pow(gamma_, static_cast<double>(i)) * 2.0 /
         (1.0 + gamma_);
}

double HistogramSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile over the ingested multiset (nearest-rank on the
  // zero-indexed order statistic, matching a sorted-vector reference).
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1) + 0.5);
  std::uint64_t cumulative = zero_count_;
  double estimate = 0.0;
  if (rank >= cumulative) {
    // The positive counts sum to count_ - zero_count_ > rank - cumulative,
    // so the walk always stops inside the stored range.
    const std::uint64_t* c = counts();
    std::size_t k = 0;
    while (k + 1 < size_) {
      cumulative += c[k];
      if (rank < cumulative) break;
      ++k;
    }
    estimate = bucket_estimate(offset_ + k);
  }
  // The true order statistic lies within the observed extremes, so clamping
  // can only tighten the estimate (and repairs clamped edge buckets).
  return std::clamp(estimate, min_, max_);
}

}  // namespace psnt::serve
