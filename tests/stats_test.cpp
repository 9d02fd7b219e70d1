#include "util/stats.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rbcast::util {
namespace {

TEST(Samples, QuantilesExact) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_EQ(s.quantile(0.0), 1.0);
  EXPECT_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(s.quantile(0.95), 95.0, 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, EmptyQuantileIsZero) {
  Samples s;
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(Samples, AddAfterQuantileStillCorrect) {
  Samples s;
  s.add(5.0);
  EXPECT_EQ(s.quantile(1.0), 5.0);
  s.add(9.0);  // must invalidate the sorted cache
  EXPECT_EQ(s.quantile(1.0), 9.0);
  s.add(1.0);
  EXPECT_EQ(s.quantile(0.0), 1.0);
}

TEST(Samples, SingleSampleIsEveryQuantile) {
  Samples s;
  s.add(4.2);
  for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(s.quantile(q), 4.2) << "q=" << q;
  }
  EXPECT_EQ(s.min(), 4.2);
  EXPECT_EQ(s.max(), 4.2);
  EXPECT_DOUBLE_EQ(s.mean(), 4.2);
}

TEST(Samples, DuplicateHeavyQuantilesLandOnTheMode) {
  // 97 copies of one value and a couple of outliers: mid quantiles must
  // report the mode, not interpolate toward the outliers.
  Samples s;
  s.add(0.1);
  for (int i = 0; i < 97; ++i) s.add(5.0);
  s.add(100.0);
  s.add(100.0);
  EXPECT_EQ(s.quantile(0.0), 0.1);
  EXPECT_EQ(s.quantile(0.5), 5.0);
  EXPECT_EQ(s.quantile(0.95), 5.0);
  EXPECT_EQ(s.quantile(1.0), 100.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW((Histogram({1.0, 1.0})), std::invalid_argument);
  EXPECT_THROW((Histogram({2.0, 1.0})), std::invalid_argument);
}

TEST(Histogram, EmptyIsAllZero) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  const auto cumulative = h.cumulative_counts();
  ASSERT_EQ(cumulative.size(), 2u);
  EXPECT_EQ(cumulative[0], 0u);
  EXPECT_EQ(cumulative[1], 0u);
}

TEST(Histogram, BucketsAreCumulativeAndBoundsInclusive) {
  Histogram h({0.1, 1.0, 10.0});
  // One below all bounds, one exactly on a bound (<= semantics), one
  // mid-range, one in the implicit +inf bucket.
  h.add(0.05);
  h.add(0.1);
  h.add(5.0);
  h.add(50.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 55.15);
  const auto cumulative = h.cumulative_counts();
  ASSERT_EQ(cumulative.size(), 3u);
  EXPECT_EQ(cumulative[0], 2u);  // 0.05 and the on-bound 0.1
  EXPECT_EQ(cumulative[1], 2u);
  EXPECT_EQ(cumulative[2], 3u);  // 50.0 only shows in count()
}

TEST(Histogram, SingleSampleQuantiles) {
  Histogram h({1.0, 2.0, 4.0});
  h.add(1.5);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(h.quantile(q), 2.0) << "q=" << q;  // its bucket's bound
  }
}

TEST(Histogram, DuplicateHeavyQuantileEstimates) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  for (int i = 0; i < 90; ++i) h.add(1.5);  // bucket le_2
  for (int i = 0; i < 10; ++i) h.add(6.0);  // bucket le_8
  EXPECT_EQ(h.quantile(0.5), 2.0);
  EXPECT_EQ(h.quantile(0.9), 2.0);
  EXPECT_EQ(h.quantile(0.99), 8.0);
}

TEST(Histogram, OverflowQuantileClampsToLastBound) {
  Histogram h({1.0, 2.0});
  h.add(100.0);
  h.add(200.0);
  EXPECT_EQ(h.quantile(0.5), 2.0);
  EXPECT_EQ(h.quantile(1.0), 2.0);
}

TEST(Histogram, ClearResets) {
  Histogram h({1.0});
  h.add(0.5);
  h.add(3.0);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.cumulative_counts()[0], 0u);
  h.add(0.5);
  EXPECT_EQ(h.cumulative_counts()[0], 1u);
}

TEST(CounterMap, IncrementAndQuery) {
  CounterMap c;
  EXPECT_EQ(c.get("x"), 0u);
  c.inc("x");
  c.inc("x", 4);
  c.inc("y");
  EXPECT_EQ(c.get("x"), 5u);
  EXPECT_EQ(c.get("y"), 1u);
  EXPECT_EQ(c.all().size(), 2u);
  c.clear();
  EXPECT_EQ(c.get("x"), 0u);
}

}  // namespace
}  // namespace rbcast::util
