// Log-bucketed histogram sketch with bounded relative quantile error.
//
// The serving layer's distribution summary (DESIGN.md §13): a DDSketch-style
// bounded-memory sketch whose buckets grow geometrically by
// gamma = (1 + alpha) / (1 - alpha). Bucket i covers
// (min_value·gamma^(i-1), min_value·gamma^i], so reporting the bucket's
// harmonic midpoint min_value·gamma^i·2/(1+gamma) answers any quantile with
// relative error ≤ alpha for values inside the trackable range
// [min_value, max_trackable()]. Values below clamp into bucket 0, values
// above into the last bucket, and non-positive values land in a dedicated
// zero bucket, so the sketch never loses a count.
//
// Storage is range-bounded (the DDSketch store, Masson et al., VLDB 2019):
// a dense array holds only the buckets from the lowest to the highest
// occupied index, plus that range's offset. The bucket mapping is the same
// fixed one, so every count and quantile equals a dense bucket_count array's;
// only the memory and the cost of reset(), copies and merge() change — they
// scale with the occupied range, not with bucket_count. Ranges up to
// kInlineBuckets live inside the object; a wider one moves to a heap array
// of at most bucket_count entries, whose capacity reset() keeps, so a sketch
// that is reset and refilled over the same range does not allocate.
//
// Two sketches with the same SketchConfig merge by bucket-wise addition,
// which is exact: merge(a, b) holds the identical counts to a sketch that
// ingested both streams. That property is what lets the store publish
// per-shard / per-window sketches and have the query side combine them
// without widening the error bound.
//
// The bucket mapping is a pure function of the config, so a caller that
// already knows a value's bucket can pass it to add(v, bucket), and a
// BucketIndexCache can memoise bucket_index() for every sketch of one config.
// The store's ingest path does both (store.h).
//
// Thread-compatibility: none. One writer per instance; snapshots are plain
// copies taken by that writer (the store's snapshot publication, store.h).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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
  // Bucket count: fixes the trackable range and bounds the stored range.
  std::size_t bucket_count = 128;

  friend bool operator==(const SketchConfig&, const SketchConfig&) = default;
};

class HistogramSketch {
 public:
  HistogramSketch() : HistogramSketch(SketchConfig{}) {}
  explicit HistogramSketch(const SketchConfig& config);

  void add(double v);
  // add() for a caller that knows v's bucket: `bucket` must equal
  // bucket_index(v) (it is ignored for v <= 0, which counts as zero).
  void add(double v, std::size_t bucket);
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
  // Count of bucket i, for any i < bucket_count (0 outside the stored range).
  [[nodiscard]] std::uint64_t bucket_count_at(std::size_t i) const {
    const std::size_t k = i - offset_;  // wraps for i < offset_
    return k < size_ ? counts()[k] : 0;
  }
  // Buckets in the stored range: the occupied one, 0 with no positive value.
  [[nodiscard]] std::size_t stored_buckets() const { return size_; }

  // Ranges up to this many buckets live inside the sketch object, so
  // copying such a sketch allocates nothing. Sized for a store window:
  // nine readings from a few decoded bins span up to ~25 buckets at the
  // default alpha of 0.5 %.
  static constexpr std::size_t kInlineBuckets = 24;

 private:
  // Widens the stored range to include bucket i.
  void cover(std::size_t i);
  [[nodiscard]] std::uint64_t* counts() {
    return heap_.empty() ? inline_.data() : heap_.data();
  }
  [[nodiscard]] const std::uint64_t* counts() const {
    return heap_.empty() ? inline_.data() : heap_.data();
  }

  SketchConfig config_;
  double gamma_ = 0.0;
  double inv_log_gamma_ = 0.0;
  double inv_min_ = 0.0;
  // Counts of buckets [offset_, offset_ + size_): in inline_ while the range
  // fits there, in heap_ once it has outgrown it (until reset()). When
  // size_ > 0 the first and last counts are non-zero: the range is exactly
  // the occupied one, whatever sequence of adds and merges built it.
  std::array<std::uint64_t, kInlineBuckets> inline_{};
  std::vector<std::uint64_t> heap_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t zero_count_ = 0;  // non-positive values
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

inline void HistogramSketch::add(double v, std::size_t bucket) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (v <= 0.0) {
    ++zero_count_;
    return;
  }
  if (bucket - offset_ >= size_) cover(bucket);
  ++counts()[bucket - offset_];
}

// Exact memo of bucket_index() for one SketchConfig: a direct-mapped table
// keyed by the value, so a hit returns the index bucket_index() computed for
// that very value and skips the log. It pays off where values repeat from a
// small set without arriving in runs: the store's decoded volts are bin
// estimates from a short ladder that alternate sample to sample, and a grid
// batch's records share one latency. Single writer.
class BucketIndexCache {
 public:
  explicit BucketIndexCache(const SketchConfig& config) : mapping_(config) {
    values_.fill(std::numeric_limits<double>::quiet_NaN());
  }

  [[nodiscard]] std::size_t index(double v) {
    // Fibonacci hashing of the value's bits picks the slot.
    const std::size_t slot = static_cast<std::size_t>(
        (std::bit_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ULL) >>
        (64 - kSlotBits));
    if (values_[slot] != v) {  // NaN never compares equal: an empty slot
      values_[slot] = v;
      buckets_[slot] = mapping_.bucket_index(v);
    }
    return buckets_[slot];
  }

 private:
  static constexpr unsigned kSlotBits = 6;
  HistogramSketch mapping_;  // only its bucket_index() is used
  std::array<double, std::size_t{1} << kSlotBits> values_;
  std::array<std::size_t, std::size_t{1} << kSlotBits> buckets_{};
};

}  // namespace psnt::serve
