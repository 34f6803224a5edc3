#include "stats/online_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace psnt::stats {
namespace {

TEST(OnlineStats, EmptyAccumulator) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.range(), 0.0);
}

TEST(OnlineStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  OnlineStats s;
  for (double x : xs) s.add(x);

  double mean = 0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  EXPECT_DOUBLE_EQ(s.range(), 15.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats all, a, b;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 3.0 + i * 0.01;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a, empty;
  a.add(2.0);
  a.add(4.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);

  OnlineStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

// add_span takes the span's moments in two passes and merges them, so it
// equals per-value add() calls up to rounding; count and extremes exactly.
TEST(OnlineStats, AddSpanMatchesSequentialAdds) {
  OnlineStats seq;
  OnlineStats spans;
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(std::sin(i * 0.37) + 1.0);
  for (const double x : xs) seq.add(x);
  std::size_t off = 0;
  for (const std::size_t n : {0u, 1u, 7u, 96u, 0u, 100u, 96u}) {
    spans.add_span(xs.data() + off, n);
    off += n;
  }
  ASSERT_EQ(off, xs.size());
  EXPECT_EQ(spans.count(), seq.count());
  EXPECT_NEAR(spans.mean(), seq.mean(), 1e-12);
  EXPECT_NEAR(spans.variance(), seq.variance(), 1e-12);
  EXPECT_EQ(spans.min(), seq.min());
  EXPECT_EQ(spans.max(), seq.max());
}

// add_span decides one bin per run of equal values; the counts must equal
// per-value add() calls, edges and out-of-range values included.
TEST(Histogram, AddSpanCountsEqualPerValueAdds) {
  Histogram one_by_one(0.7, 1.3, 60);
  Histogram spans(0.7, 1.3, 60);
  const std::vector<double> xs = {0.93, 0.93, 0.93, 0.7,  0.7, 1.3, 1.3,
                                  0.69, 0.69, 1.31, 1.0,  1.0, 1.0, 0.99,
                                  0.71, 0.71, 1.29, 1.29, 0.8, 0.8};
  for (const double x : xs) one_by_one.add(x);
  spans.add_span(xs.data(), 5);
  spans.add_span(xs.data() + 5, 0);
  spans.add_span(xs.data() + 5, xs.size() - 5);
  EXPECT_EQ(spans.total(), one_by_one.total());
  EXPECT_EQ(spans.underflow(), one_by_one.underflow());
  EXPECT_EQ(spans.overflow(), one_by_one.overflow());
  for (std::size_t b = 0; b < spans.bin_count(); ++b) {
    EXPECT_EQ(spans.count(b), one_by_one.count(b)) << "bin " << b;
  }
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.bin_count(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

TEST(Histogram, CountsInRangeAndOverflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(0.1);   // bin 0
  h.add(0.3);   // bin 1
  h.add(0.99);  // bin 3
  h.add(-0.5);  // underflow
  h.add(2.0);   // overflow
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, QuantileInterpolates) {
  Histogram h(0.0, 1.0, 10);
  for (int i = 0; i < 1000; ++i) {
    h.add((i + 0.5) / 1000.0);  // uniform fill
  }
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.06);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.06);
  EXPECT_NEAR(h.quantile(0.1), 0.1, 0.06);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::logic_error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::logic_error);
}

TEST(Histogram, QuantileValidatesInput) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_THROW((void)h.quantile(1.5), std::logic_error);
}

}  // namespace
}  // namespace psnt::stats
