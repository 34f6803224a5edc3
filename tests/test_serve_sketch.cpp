// HistogramSketch property tests: the bounded-relative-error contract, exact
// merge, clamping at the trackable range edges, the zero bucket, and the
// range-bounded store against a dense bucket_count reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "serve/histogram_sketch.h"
#include "stats/rng.h"

namespace psnt::serve {
namespace {

double exact_quantile(std::vector<double> sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

// Core contract: for values inside the trackable range, every quantile
// estimate is within alpha relative error of the exact order statistic.
TEST(HistogramSketch, QuantileRelativeErrorBound) {
  const SketchConfig config{0.01, 0.5, 160};
  HistogramSketch sketch{config};
  stats::Xoshiro256 rng(42);

  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    // Voltage-shaped stream: mostly near nominal with droop excursions.
    const double v = rng.bernoulli(0.9) ? rng.uniform(0.9, 1.1)
                                        : rng.uniform(0.7, 1.3);
    values.push_back(v);
    sketch.add(v);
  }
  std::sort(values.begin(), values.end());

  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double exact = exact_quantile(values, q);
    const double est = sketch.quantile(q);
    EXPECT_LE(std::abs(est - exact) / exact, config.alpha)
        << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(HistogramSketch, QuantileBoundHoldsAcrossAlphas) {
  stats::Xoshiro256 rng(7);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.uniform(0.6, 2.0));
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  for (const double alpha : {0.005, 0.02, 0.05}) {
    HistogramSketch sketch{SketchConfig{alpha, 0.5, 512}};
    for (const double v : values) sketch.add(v);
    for (double q = 0.05; q < 1.0; q += 0.05) {
      const double exact = exact_quantile(sorted, q);
      EXPECT_LE(std::abs(sketch.quantile(q) - exact) / exact, alpha)
          << "alpha=" << alpha << " q=" << q;
    }
  }
}

// merge(a, b) must be bucket-identical to a sketch that saw both streams —
// the property the store's per-shard / per-window publication relies on.
TEST(HistogramSketch, MergeIsExact) {
  const SketchConfig config{0.01, 1e-3, 128};
  HistogramSketch a{config};
  HistogramSketch b{config};
  HistogramSketch both{config};
  stats::Xoshiro256 rng(3);
  for (int i = 0; i < 4000; ++i) {
    const double v = rng.uniform(0.0, 3.0) - 0.05;  // some non-positive
    if (i % 2 == 0) {
      a.add(v);
    } else {
      b.add(v);
    }
    both.add(v);
  }

  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.zero_count(), both.zero_count());
  EXPECT_DOUBLE_EQ(a.min(), both.min());
  EXPECT_DOUBLE_EQ(a.max(), both.max());
  for (std::size_t i = 0; i < config.bucket_count; ++i) {
    EXPECT_EQ(a.bucket_count_at(i), both.bucket_count_at(i)) << "bucket " << i;
  }
  for (const double q : {0.01, 0.5, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), both.quantile(q));
  }
}

TEST(HistogramSketch, NonPositiveValuesLandInZeroBucket) {
  HistogramSketch sketch{SketchConfig{0.01, 1e-3, 64}};
  sketch.add(0.0);
  sketch.add(-2.5);
  sketch.add(1.0);
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_EQ(sketch.zero_count(), 2u);
  EXPECT_DOUBLE_EQ(sketch.min(), -2.5);
  // The bottom quantiles report 0 (the zero bucket), clamped to min.
  EXPECT_LE(sketch.quantile(0.0), 0.0);
}

TEST(HistogramSketch, ClampsOutsideTrackableRange) {
  const SketchConfig config{0.01, 0.5, 32};  // deliberately tiny range
  HistogramSketch sketch{config};
  const double huge = sketch.max_trackable() * 100.0;
  sketch.add(0.01);  // below min_value -> bucket 0
  sketch.add(huge);  // above max_trackable -> last bucket
  EXPECT_EQ(sketch.count(), 2u);
  EXPECT_EQ(sketch.bucket_index(0.01), 0u);
  EXPECT_EQ(sketch.bucket_index(huge), config.bucket_count - 1);
  // Estimates stay inside the observed range even when buckets clamp.
  EXPECT_GE(sketch.quantile(0.0), 0.01);
  EXPECT_LE(sketch.quantile(1.0), huge);
}

TEST(HistogramSketch, EmptyAndReset) {
  HistogramSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
  sketch.add(1.0);
  sketch.reset();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_DOUBLE_EQ(sketch.sum(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
}

TEST(HistogramSketch, MeanMatchesExactSum) {
  HistogramSketch sketch{SketchConfig{0.02, 0.5, 64}};
  double sum = 0.0;
  stats::Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0.8, 1.2);
    sum += v;
    sketch.add(v);
  }
  EXPECT_NEAR(sketch.mean(), sum / 1000.0, 1e-12);  // sum is exact, not bucketed
}

// Per-bucket reference counts built by calling bucket_index(v) for every
// value, with no BucketIndexCache in the way.
struct BucketReference {
  std::vector<std::uint64_t> buckets;
  std::uint64_t zero = 0;

  void add(const HistogramSketch& sketch, double v) {
    if (buckets.empty()) buckets.assign(sketch.config().bucket_count, 0);
    if (v <= 0.0) {
      ++zero;
    } else {
      ++buckets[sketch.bucket_index(v)];
    }
  }
  void merge(const BucketReference& other) {
    if (buckets.empty()) buckets.assign(other.buckets.size(), 0);
    for (std::size_t i = 0; i < other.buckets.size(); ++i) {
      buckets[i] += other.buckets[i];
    }
    zero += other.zero;
  }
};

void expect_matches(const HistogramSketch& sketch, const BucketReference& ref,
                    const char* where) {
  ASSERT_EQ(ref.buckets.size(), sketch.config().bucket_count) << where;
  EXPECT_EQ(sketch.zero_count(), ref.zero) << where;
  for (std::size_t i = 0; i < ref.buckets.size(); ++i) {
    EXPECT_EQ(sketch.bucket_count_at(i), ref.buckets[i])
        << where << ": bucket " << i;
  }
}

// A stream shaped to probe the bucket-index memo: runs of repeated values
// drawn from a small ladder (the store's volts and per-batch latencies),
// values on bucket edges and one ulp either side of them, non-positive
// values (including -0.0) between repeats, and fresh values that collide in
// the cache's table. Each value goes in through add(v) or through
// add(v, cache.index(v)), the store's path.
void add_probe_stream(stats::Xoshiro256& rng, HistogramSketch& sketch,
                      BucketIndexCache& cache, BucketReference& ref,
                      std::size_t n) {
  const SketchConfig& c = sketch.config();
  const double gamma = (1.0 + c.alpha) / (1.0 - c.alpha);
  const std::vector<double> ladder = {0.83, 0.9, 0.93, 0.96, 0.99, 1.02, 1.05};
  std::size_t added = 0;
  while (added < n) {
    double v = 0.0;
    switch (rng.uniform_index(5)) {
      case 0:
        v = ladder[rng.uniform_index(ladder.size())];
        break;
      case 1: {
        const double edge =
            c.min_value *
            std::pow(gamma, static_cast<double>(rng.uniform_index(
                                c.bucket_count)));
        const std::uint64_t side = rng.uniform_index(3);
        v = side == 0   ? std::nextafter(edge, 0.0)
            : side == 1 ? edge
                        : std::nextafter(edge, 2.0 * edge);
        break;
      }
      case 2: {
        const double zeros[] = {0.0, -0.0, -1.5};
        v = zeros[rng.uniform_index(3)];
        break;
      }
      default:
        v = rng.uniform(0.5 * c.min_value, 2.0);
        break;
    }
    const std::size_t run = 1 + rng.uniform_index(8);
    for (std::size_t r = 0; r < run && added < n; ++r, ++added) {
      if (rng.uniform01() < 0.25) {
        sketch.add(v);
      } else {
        sketch.add(v, v > 0.0 ? cache.index(v) : 0);
      }
      ref.add(sketch, v);
    }
  }
}

// The bucket-index memo (BucketIndexCache) is exact: bucket counts equal a
// reference that calls bucket_index per value, through copies, merges and
// resets, with one cache shared by every sketch of the config.
TEST(HistogramSketch, AddMemoMatchesPerValueBucketIndex) {
  const SketchConfig config{0.01, 0.05, 96};
  stats::Xoshiro256 rng(2026);
  BucketIndexCache cache{config};

  HistogramSketch a{config};
  BucketReference ref_a;
  add_probe_stream(rng, a, cache, ref_a, 4000);
  expect_matches(a, ref_a, "fresh");

  // A copy and its original keep counting correctly.
  HistogramSketch b = a;
  BucketReference ref_b = ref_a;
  add_probe_stream(rng, b, cache, ref_b, 2000);
  expect_matches(b, ref_b, "copy");
  add_probe_stream(rng, a, cache, ref_a, 2000);
  expect_matches(a, ref_a, "original after copy");

  // Merge, then keep adding into the merged sketch.
  HistogramSketch m{config};
  BucketReference ref_m;
  add_probe_stream(rng, m, cache, ref_m, 1500);
  m.merge(b);
  ref_m.merge(ref_b);
  add_probe_stream(rng, m, cache, ref_m, 1500);
  expect_matches(m, ref_m, "merge");

  // Reset, then repeat the last value through the cache.
  const double last = m.max();
  m.reset();
  BucketReference ref_r;
  m.add(last, cache.index(last));
  ref_r.add(m, last);
  add_probe_stream(rng, m, cache, ref_r, 2000);
  expect_matches(m, ref_r, "reset");
  EXPECT_EQ(m.count(), 2001u);
}


// The dense store the range-bounded one replaces: bucket_count counters,
// exact extremes, and the same nearest-rank quantile walk over all buckets.
struct DenseReference {
  explicit DenseReference(const SketchConfig& config)
      : buckets(config.bucket_count, 0) {}

  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::uint64_t zero = 0;
  double min = 0.0;
  double max = 0.0;

  void add(const HistogramSketch& mapping, double v) {
    min = count == 0 ? v : std::min(min, v);
    max = count == 0 ? v : std::max(max, v);
    ++count;
    if (v <= 0.0) {
      ++zero;
    } else {
      ++buckets[mapping.bucket_index(v)];
    }
  }
  void merge(const DenseReference& other) {
    if (other.count == 0) return;
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
    count += other.count;
    zero += other.zero;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += other.buckets[i];
    }
  }
  double quantile(const HistogramSketch& mapping, double q) const {
    if (count == 0) return 0.0;
    const auto rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count - 1) + 0.5);
    std::uint64_t cumulative = zero;
    double estimate = 0.0;
    if (rank >= cumulative) {
      std::size_t i = 0;
      for (; i < buckets.size(); ++i) {
        cumulative += buckets[i];
        if (rank < cumulative) break;
      }
      estimate = mapping.bucket_estimate(std::min(i, buckets.size() - 1));
    }
    return std::clamp(estimate, min, max);
  }
};

// Bucket counts, extremes and every quantile at q = 0, 0.01, ..., 1 equal the
// dense reference bit for bit, and the stored range is exactly the occupied
// one.
void expect_dense(const HistogramSketch& sketch, const DenseReference& ref,
                  const char* where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(sketch.count(), ref.count);
  EXPECT_EQ(sketch.zero_count(), ref.zero);
  std::size_t first = ref.buckets.size();
  std::size_t last = 0;
  for (std::size_t i = 0; i < ref.buckets.size(); ++i) {
    ASSERT_EQ(sketch.bucket_count_at(i), ref.buckets[i]) << "bucket " << i;
    if (ref.buckets[i] != 0) {
      first = std::min(first, i);
      last = i;
    }
  }
  const std::size_t occupied = first < ref.buckets.size() ? last - first + 1 : 0;
  EXPECT_EQ(sketch.stored_buckets(), occupied);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sketch.min()),
            std::bit_cast<std::uint64_t>(ref.count ? ref.min : 0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sketch.max()),
            std::bit_cast<std::uint64_t>(ref.count ? ref.max : 0.0));
  for (int p = 0; p <= 100; ++p) {
    const double q = p / 100.0;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(sketch.quantile(q)),
              std::bit_cast<std::uint64_t>(ref.quantile(sketch, q)))
        << "q=" << q;
  }
}

void add_both(HistogramSketch& sketch, DenseReference& ref, double v) {
  sketch.add(v);
  ref.add(sketch, v);
}

// Values uniform over [lo, hi], with an occasional non-positive one.
void fill(stats::Xoshiro256& rng, HistogramSketch& sketch, DenseReference& ref,
          double lo, double hi, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    add_both(sketch, ref, rng.uniform01() < 0.03 ? 0.0 : rng.uniform(lo, hi));
  }
}

TEST(HistogramSketch, RangeBoundedStoreMatchesDenseReference) {
  const SketchConfig config{0.005, 0.5, 160};
  stats::Xoshiro256 rng(1709);

  // Disjoint ranges, merged in both directions and into an empty sketch.
  HistogramSketch low{config};
  HistogramSketch high{config};
  DenseReference ref_low{config};
  DenseReference ref_high{config};
  fill(rng, low, ref_low, 0.6, 0.65, 300);
  fill(rng, high, ref_high, 1.6, 1.9, 300);
  expect_dense(low, ref_low, "low");
  expect_dense(high, ref_high, "high");
  EXPECT_LT(low.stored_buckets(), 16u);

  HistogramSketch up = low;  // higher range merged above
  DenseReference ref_up = ref_low;
  up.merge(high);
  ref_up.merge(ref_high);
  expect_dense(up, ref_up, "low + high");

  HistogramSketch down = high;  // lower range merged below
  DenseReference ref_down = ref_high;
  down.merge(low);
  ref_down.merge(ref_low);
  expect_dense(down, ref_down, "high + low");
  for (std::size_t i = 0; i < config.bucket_count; ++i) {
    ASSERT_EQ(up.bucket_count_at(i), down.bucket_count_at(i)) << i;
  }

  HistogramSketch empty{config};
  DenseReference ref_empty{config};
  empty.merge(up);
  ref_empty.merge(ref_up);
  expect_dense(empty, ref_empty, "empty + merged");
  up.merge(HistogramSketch{config});
  expect_dense(up, ref_up, "merged + empty");

  // Only non-positive values: no bucket is stored, quantiles clamp to them.
  HistogramSketch zeros{config};
  DenseReference ref_zeros{config};
  add_both(zeros, ref_zeros, 0.0);
  add_both(zeros, ref_zeros, -0.25);
  expect_dense(zeros, ref_zeros, "zeros");
  EXPECT_EQ(zeros.stored_buckets(), 0u);
  zeros.merge(low);
  ref_zeros.merge(ref_low);
  expect_dense(zeros, ref_zeros, "zeros + low");

  // Clamped values at both ends widen the range to the full bucket count.
  HistogramSketch wide = low;
  DenseReference ref_wide = ref_low;
  add_both(wide, ref_wide, 1e-6);
  add_both(wide, ref_wide, 1e9);
  expect_dense(wide, ref_wide, "clamped ends");
  EXPECT_EQ(wide.stored_buckets(), config.bucket_count);

  // Copies are independent: each keeps counting into its own range.
  HistogramSketch copy = up;
  DenseReference ref_copy = ref_up;
  fill(rng, copy, ref_copy, 0.5, 0.55, 200);
  fill(rng, up, ref_up, 2.0, 2.3, 200);
  expect_dense(copy, ref_copy, "copy after divergence");
  expect_dense(up, ref_up, "original after divergence");

  // Reset and reuse over a range below, then above, the old one; a reused
  // sketch matches a fresh one.
  for (const auto& [lo, hi] : {std::pair{0.5, 0.52}, std::pair{2.1, 2.4},
                               std::pair{0.9, 1.3}}) {
    up.reset();
    DenseReference ref_reset{config};
    expect_dense(up, ref_reset, "after reset");
    fill(rng, up, ref_reset, lo, hi, 250);
    expect_dense(up, ref_reset, "reused");
  }

  // Random merge trees over random ranges.
  for (int round = 0; round < 40; ++round) {
    HistogramSketch acc{config};
    DenseReference ref_acc{config};
    const std::size_t parts = 1 + rng.uniform_index(5);
    for (std::size_t p = 0; p < parts; ++p) {
      HistogramSketch part{config};
      DenseReference ref_part{config};
      const double lo = rng.uniform(0.3, 2.0);
      fill(rng, part, ref_part, lo, lo * rng.uniform(1.0, 1.3),
           rng.uniform_index(60));
      acc.merge(part);
      ref_acc.merge(ref_part);
    }
    expect_dense(acc, ref_acc, "merge tree");
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace psnt::serve
