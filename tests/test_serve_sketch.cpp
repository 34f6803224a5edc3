// HistogramSketch property tests: the bounded-relative-error contract, exact
// merge, clamping at the trackable range edges, and the zero bucket.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
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
// value, with no memo in the way.
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

// A stream shaped to probe add()'s last-bucket memo: runs of repeated
// values drawn from a small ladder (the store's volts and per-batch
// latencies), values on bucket edges and one ulp either side of them,
// non-positive values (including -0.0) between repeats, and fresh values.
void add_probe_stream(stats::Xoshiro256& rng, HistogramSketch& sketch,
                      BucketReference& ref, std::size_t n) {
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
      sketch.add(v);
      ref.add(sketch, v);
    }
  }
}

// The last-bucket memo in add() is exact: bucket counts equal a reference
// that calls bucket_index per value, through copies, merges and resets.
TEST(HistogramSketch, AddMemoMatchesPerValueBucketIndex) {
  const SketchConfig config{0.01, 0.05, 96};
  stats::Xoshiro256 rng(2026);

  HistogramSketch a{config};
  BucketReference ref_a;
  add_probe_stream(rng, a, ref_a, 4000);
  expect_matches(a, ref_a, "fresh");

  // A copy carries the memo; both sketches keep counting correctly.
  HistogramSketch b = a;
  BucketReference ref_b = ref_a;
  add_probe_stream(rng, b, ref_b, 2000);
  expect_matches(b, ref_b, "copy");
  add_probe_stream(rng, a, ref_a, 2000);
  expect_matches(a, ref_a, "original after copy");

  // Merge, then keep adding into the merged sketch.
  HistogramSketch m{config};
  BucketReference ref_m;
  add_probe_stream(rng, m, ref_m, 1500);
  m.merge(b);
  ref_m.merge(ref_b);
  add_probe_stream(rng, m, ref_m, 1500);
  expect_matches(m, ref_m, "merge");

  // Reset, then repeat the value the memo last held.
  const double last = m.max();
  m.reset();
  BucketReference ref_r;
  m.add(last);
  ref_r.add(m, last);
  add_probe_stream(rng, m, ref_r, 2000);
  expect_matches(m, ref_r, "reset");
  EXPECT_EQ(m.count(), 2001u);
}

}  // namespace
}  // namespace psnt::serve
