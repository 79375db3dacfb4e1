// Descriptive statistics used by the analysis layer.
#include <gtest/gtest.h>

#include "signal/stats.h"

namespace {

using namespace nyqmon::sig;

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> x{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(x), 5.0);
  EXPECT_DOUBLE_EQ(variance(x), 4.0);
  EXPECT_DOUBLE_EQ(stddev(x), 2.0);
}

TEST(Stats, QuantileEndpoints) {
  const std::vector<double> x{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(x, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(x, 0.5), 3.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> x{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(x, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(x, 0.75), 7.5);
}

TEST(Stats, QuantileSingleElement) {
  const std::vector<double> x{42.0};
  EXPECT_DOUBLE_EQ(quantile(x, 0.3), 42.0);
}

TEST(Stats, SummaryFiveNumbers) {
  std::vector<double> x;
  for (int i = 1; i <= 101; ++i) x.push_back(static_cast<double>(i));
  const Summary s = summarize(x);
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.q1, 26.0);
  EXPECT_DOUBLE_EQ(s.median, 51.0);
  EXPECT_DOUBLE_EQ(s.q3, 76.0);
  EXPECT_DOUBLE_EQ(s.max, 101.0);
  EXPECT_DOUBLE_EQ(s.mean, 51.0);
}

TEST(Stats, SummaryUnsortedInput) {
  const std::vector<double> x{9.0, 1.0, 5.0};
  const Summary s = summarize(x);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Stats, EmptyInputThrows) {
  const std::vector<double> x;
  EXPECT_THROW((void)mean(x), std::invalid_argument);
  EXPECT_THROW((void)quantile(x, 0.5), std::invalid_argument);
  EXPECT_THROW((void)summarize(x), std::invalid_argument);
}

TEST(Stats, QuantileOutOfRangeThrows) {
  const std::vector<double> x{1.0};
  EXPECT_THROW((void)quantile(x, -0.1), std::invalid_argument);
  EXPECT_THROW((void)quantile(x, 1.1), std::invalid_argument);
}

}  // namespace
