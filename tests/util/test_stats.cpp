#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace vcopt::util {
namespace {

TEST(RunningStats, EmptyThrows) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
  EXPECT_THROW(s.max(), std::logic_error);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  // Sample variance of this classic data set is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
}

TEST(RunningStats, NegativeValues) {
  RunningStats s;
  s.add(-5);
  s.add(5);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
}

TEST(Samples, PercentileInterpolates) {
  Samples s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
}

TEST(Samples, PercentileSingle) {
  Samples s;
  s.add(7);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
}

TEST(Samples, PercentileValidation) {
  Samples s;
  EXPECT_THROW(s.percentile(50), std::logic_error);
  s.add(1);
  EXPECT_THROW(s.percentile(-1), std::invalid_argument);
  EXPECT_THROW(s.percentile(101), std::invalid_argument);
}

TEST(Samples, StatsMatchRunningStats) {
  Samples s;
  RunningStats r;
  for (int i = 1; i <= 50; ++i) {
    s.add(i * 0.5);
    r.add(i * 0.5);
  }
  EXPECT_NEAR(s.mean(), r.mean(), 1e-12);
  EXPECT_NEAR(s.stddev(), r.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), r.min());
  EXPECT_DOUBLE_EQ(s.max(), r.max());
}

TEST(Samples, AddAfterPercentileResorts) {
  Samples s;
  s.add(1);
  s.add(3);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  s.add(100);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0, 10, 5);
  h.add(-1);   // clamps to first bucket
  h.add(0.5);
  h.add(3.0);
  h.add(9.9);
  h.add(25);   // clamps to last bucket
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(4), 2u);
}

TEST(Histogram, BucketBounds) {
  Histogram h(0, 10, 5);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(4), 8.0);
}

TEST(Histogram, Validation) {
  EXPECT_THROW(Histogram(1, 1, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(2, 1, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(0, 1, 0), std::invalid_argument);
  Histogram h(0, 1, 2);
  EXPECT_THROW(h.count(2), std::out_of_range);
}

TEST(Histogram, RenderContainsCounts) {
  Histogram h(0, 2, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string render = h.render(10);
  EXPECT_NE(render.find("1"), std::string::npos);
  EXPECT_NE(render.find("2"), std::string::npos);
}

// The backoff schedule must stay finite and clamped no matter how many
// attempts pile up: initial * factor^(attempt-1) overflows double well
// before attempt 10000, and an inf/nan delay would wedge the event queue.
// The parameters are the repair loop's: 1 s doubling, capped at 60 s, +-25%.
TEST(JitteredBackoff, StaysFiniteAndCappedAtAbsurdAttemptCounts) {
  for (const int attempt : {1, 2, 7, 64, 1024, 10000, 1 << 30}) {
    for (const double u : {0.0, 0.5, 0.999999}) {
      const double d = jittered_backoff(1.0, 2.0, attempt, 60.0, 0.25, u);
      ASSERT_TRUE(std::isfinite(d)) << "attempt " << attempt;
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, 60.0) << "attempt " << attempt;
    }
  }
  // Early attempts still grow geometrically below the cap.
  EXPECT_DOUBLE_EQ(jittered_backoff(1.0, 2.0, 1, 60.0, 0.25, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(jittered_backoff(1.0, 2.0, 2, 60.0, 0.25, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(jittered_backoff(1.0, 2.0, 3, 60.0, 0.25, 0.5), 4.0);
}

// Extreme parameters (huge initial, huge factor) are also clamped, and a
// jitter draw at the top of [0, 1) never pushes the delay past the cap.
TEST(JitteredBackoff, ClampSurvivesExtremeParameters) {
  for (const int attempt : {1, 50, 10000}) {
    const double d = jittered_backoff(1e300, 1e10, attempt, 30.0, 1.0, 0.999999);
    ASSERT_TRUE(std::isfinite(d));
    EXPECT_LE(d, 30.0);
    EXPECT_GE(d, 0.0);
  }
}

}  // namespace
}  // namespace vcopt::util
