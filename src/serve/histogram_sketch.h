// Log-bucketed histogram sketch with bounded relative quantile error.
//
// The serving layer's distribution summary (DESIGN.md §13): a DDSketch-style
// fixed-memory sketch whose buckets grow geometrically by
// gamma = (1 + alpha) / (1 - alpha). Bucket i covers
// (min_value·gamma^(i-1), min_value·gamma^i], so reporting the bucket's
// harmonic midpoint min_value·gamma^i·2/(1+gamma) answers any quantile with
// relative error ≤ alpha for values inside the trackable range
// [min_value, max_trackable()]. Values below clamp into bucket 0, values
// above into the last bucket, and non-positive values land in a dedicated
// zero bucket — the sketch never grows, never allocates after construction,
// and never loses a count.
//
// Two sketches with the same SketchConfig merge by bucket-wise addition,
// which is exact: merge(a, b) holds the identical counts to a sketch that
// ingested both streams. That property is what lets the store publish
// per-shard / per-window sketches and have the query side combine them
// without widening the error bound.
//
// add() keeps a one-entry memo of the last positive value and its bucket:
// a repeat skips the log. The memo is a pure function of the config, so it
// stays exact across reset(), merge() and copies. It pays off on the store's
// ingest path, where volts come from a small ladder of bin estimates and a
// latency is constant over a grid batch.
//
// Thread-compatibility: none. One writer per instance; snapshots are plain
// copies taken by that writer (the store's snapshot publication, store.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace psnt::serve {

struct SketchConfig {
  // Target relative accuracy of quantile estimates, 0 < alpha < 1.
  double alpha = 0.01;
  // Lower edge of the trackable range; positive values at or below it share
  // bucket 0.
  double min_value = 1e-3;
  // Fixed bucket count — the sketch's whole memory footprint.
  std::size_t bucket_count = 128;

  friend bool operator==(const SketchConfig&, const SketchConfig&) = default;
};

class HistogramSketch {
 public:
  HistogramSketch() : HistogramSketch(SketchConfig{}) {}
  explicit HistogramSketch(const SketchConfig& config);

  void add(double v);
  // Bucket-wise addition; both sketches must share one SketchConfig.
  void merge(const HistogramSketch& other);
  void reset();

  [[nodiscard]] const SketchConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t zero_count() const { return zero_count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  // Observed extremes (exact, not bucketed); 0 when empty.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  // Quantile estimate, q in [0, 1]; 0 when empty. Relative error ≤ alpha
  // for values within [min_value, max_trackable()]; estimates are clamped
  // to the observed [min, max] so edge quantiles stay sane.
  [[nodiscard]] double quantile(double q) const;

  // Largest value bucketed without clamping: min_value·gamma^(buckets-1).
  [[nodiscard]] double max_trackable() const;
  // Harmonic midpoint reported for bucket i.
  [[nodiscard]] double bucket_estimate(std::size_t i) const;
  [[nodiscard]] std::size_t bucket_index(double v) const;
  [[nodiscard]] std::uint64_t bucket_count_at(std::size_t i) const {
    return buckets_[i];
  }

 private:
  SketchConfig config_;
  double gamma_ = 0.0;
  double inv_log_gamma_ = 0.0;
  double inv_min_ = 0.0;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;  // non-positive values
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  // add()'s memo: bucket_index(memo_value_) == memo_bucket_. NaN never
  // compares equal, so the empty memo never hits.
  double memo_value_ = std::numeric_limits<double>::quiet_NaN();
  std::size_t memo_bucket_ = 0;
};

}  // namespace psnt::serve
