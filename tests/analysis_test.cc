// Analysis helpers: empirical CDFs (Figure 4 machinery) and the box-plot /
// table renderers (Figure 5).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/cdf.h"
#include "analysis/report.h"
#include "signal/stats.h"

namespace {

using nyqmon::ana::BoxRow;
using nyqmon::ana::Cdf;
using nyqmon::ana::render_box_table;

TEST(Cdf, FractionAtBasics) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const Cdf cdf(x);
  EXPECT_DOUBLE_EQ(cdf.fraction_at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at(100.0), 1.0);
}

TEST(Cdf, UnsortedInputHandled) {
  const std::vector<double> x{5.0, 1.0, 3.0};
  const Cdf cdf(x);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 5.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 3.0);
}

TEST(Cdf, MonotoneNondecreasing) {
  const std::vector<double> x{2.0, 2.0, 7.0, 9.0, 11.0};
  const Cdf cdf(x);
  double prev = 0.0;
  for (double q = 0.0; q <= 15.0; q += 0.5) {
    const double f = cdf.fraction_at(q);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(Cdf, DuplicatesStack) {
  const std::vector<double> x{3.0, 3.0, 3.0, 10.0};
  const Cdf cdf(x);
  EXPECT_DOUBLE_EQ(cdf.fraction_at(3.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf.fraction_at(2.999), 0.0);
}

TEST(Cdf, LogRowsSpanDecades) {
  std::vector<double> x;
  for (int i = 1; i <= 1000; ++i) x.push_back(static_cast<double>(i));
  const Cdf cdf(x);
  const auto rows = cdf.log_rows(0, 3);
  ASSERT_EQ(rows.size(), 4u);  // 1, 10, 100, 1000
  EXPECT_DOUBLE_EQ(rows[0].first, 1.0);
  EXPECT_DOUBLE_EQ(rows[3].first, 1000.0);
  EXPECT_NEAR(rows[1].second, 0.01, 0.001);
  EXPECT_DOUBLE_EQ(rows[3].second, 1.0);
}

TEST(Cdf, LogRowsPerDecadeSubdivision) {
  const std::vector<double> x{1.0};
  const Cdf cdf(x);
  const auto rows = cdf.log_rows(0, 2, 2);
  // 10^0, 10^0.5, 10^1, 10^1.5, 10^2.
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_NEAR(rows[1].first, std::sqrt(10.0), 1e-9);
}

TEST(Cdf, EmptySafe) {
  const Cdf cdf(std::vector<double>{});
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.fraction_at(1.0), 0.0);
  EXPECT_THROW((void)cdf.quantile(0.5), std::invalid_argument);
}

TEST(Report, BoxTableContainsLabelsAndNumbers) {
  BoxRow row;
  row.label = "Temperature";
  row.summary = nyqmon::sig::summarize(std::vector<double>{1.0, 2.0, 3.0});
  const auto text = render_box_table({row});
  EXPECT_NE(text.find("Temperature"), std::string::npos);
  EXPECT_NE(text.find("min"), std::string::npos);
  EXPECT_NE(text.find("3"), std::string::npos);
}

}  // namespace
