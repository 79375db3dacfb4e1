// TimeSeries / RegularSeries container semantics.
#include <gtest/gtest.h>

#include "signal/timeseries.h"

namespace {

using nyqmon::sig::RegularSeries;
using nyqmon::sig::Sample;
using nyqmon::sig::TimeSeries;

TEST(TimeSeries, PushKeepsOrderWhenMonotone) {
  TimeSeries ts;
  ts.push(0.0, 1.0);
  ts.push(1.0, 2.0);
  ts.push(2.0, 3.0);
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0].v, 1.0);
  EXPECT_EQ(ts[2].v, 3.0);
}

TEST(TimeSeries, PushSortsOutOfOrderSamples) {
  TimeSeries ts;
  ts.push(2.0, 30.0);
  ts.push(0.0, 10.0);
  ts.push(1.0, 20.0);
  EXPECT_EQ(ts[0].t, 0.0);
  EXPECT_EQ(ts[1].t, 1.0);
  EXPECT_EQ(ts[2].t, 2.0);
}

TEST(TimeSeries, ConstructorSortsVector) {
  TimeSeries ts(std::vector<Sample>{{3.0, 3.0}, {1.0, 1.0}, {2.0, 2.0}});
  EXPECT_EQ(ts.start_time(), 1.0);
  EXPECT_EQ(ts.end_time(), 3.0);
  EXPECT_EQ(ts.duration(), 2.0);
}

TEST(TimeSeries, StableSortPreservesDuplicateOrder) {
  TimeSeries ts(std::vector<Sample>{{1.0, 10.0}, {1.0, 20.0}});
  EXPECT_EQ(ts[0].v, 10.0);
  EXPECT_EQ(ts[1].v, 20.0);
}

TEST(TimeSeries, PushOutOfOrderKeepsArrivalOrderAmongEqualTimes) {
  // Out-of-order pushes with repeated timestamps land where a stable sort
  // of the whole arrival sequence puts them: by time, ties in arrival
  // order (sig::regularize averages duplicates in that order).
  const std::vector<Sample> arrivals = {
      {2.0, 1.0}, {3.0, 2.0}, {1.0, 3.0}, {2.0, 4.0}, {2.0, 5.0},
      {1.0, 6.0}, {3.0, 7.0}, {0.5, 8.0}, {2.0, 9.0}, {1.0, 10.0}};
  TimeSeries pushed;
  for (const Sample& s : arrivals) pushed.push(s.t, s.v);
  EXPECT_EQ(pushed.samples(), TimeSeries(arrivals).samples());
}

TEST(TimeSeries, MedianIntervalRobustToJitterAndGaps) {
  TimeSeries ts;
  // Nominal 10 s cadence with one big gap.
  for (double t : {0.0, 10.0, 20.1, 29.9, 40.0, 200.0, 210.0}) ts.push(t, 0.0);
  EXPECT_NEAR(ts.median_interval(), 10.0, 0.2);
}

TEST(TimeSeries, ValuesAndTimesExtract) {
  TimeSeries ts(std::vector<Sample>{{0.0, 5.0}, {1.0, 6.0}});
  EXPECT_EQ(ts.values(), (std::vector<double>{5.0, 6.0}));
  EXPECT_EQ(ts.times(), (std::vector<double>{0.0, 1.0}));
}

TEST(TimeSeries, EmptyAccessorsThrow) {
  const TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_THROW((void)ts.start_time(), std::invalid_argument);
  EXPECT_THROW((void)ts.median_interval(), std::invalid_argument);
}

TEST(RegularSeries, BasicAccessors) {
  const RegularSeries rs(100.0, 0.5, {1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(rs.size(), 4u);
  EXPECT_DOUBLE_EQ(rs.t0(), 100.0);
  EXPECT_DOUBLE_EQ(rs.dt(), 0.5);
  EXPECT_DOUBLE_EQ(rs.sample_rate_hz(), 2.0);
  EXPECT_DOUBLE_EQ(rs.duration(), 1.5);
  EXPECT_DOUBLE_EQ(rs.time_at(3), 101.5);
  EXPECT_DOUBLE_EQ(rs[2], 3.0);
}

TEST(RegularSeries, NonPositiveDtThrows) {
  EXPECT_THROW(RegularSeries(0.0, 0.0, {1.0}), std::invalid_argument);
  EXPECT_THROW(RegularSeries(0.0, -1.0, {1.0}), std::invalid_argument);
}

TEST(RegularSeries, SliceSharesGrid) {
  const RegularSeries rs(0.0, 1.0, {0.0, 1.0, 2.0, 3.0, 4.0});
  const RegularSeries s = rs.slice(2, 2);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.t0(), 2.0);
  EXPECT_DOUBLE_EQ(s[0], 2.0);
  EXPECT_DOUBLE_EQ(s[1], 3.0);
}

TEST(RegularSeries, SliceOutOfRangeThrows) {
  const RegularSeries rs(0.0, 1.0, {1.0, 2.0});
  EXPECT_THROW((void)rs.slice(1, 2), std::invalid_argument);
}

TEST(RegularSeries, EmptyDuration) {
  const RegularSeries rs(0.0, 1.0, {});
  EXPECT_TRUE(rs.empty());
  EXPECT_DOUBLE_EQ(rs.duration(), 0.0);
}

}  // namespace
