// Descriptive statistics over sample vectors; the analysis layer builds its
// CDFs and box plots on these.
#pragma once

#include <span>
#include <vector>

namespace nyqmon::sig {

double mean(std::span<const double> x);
double variance(std::span<const double> x);   ///< population variance
double stddev(std::span<const double> x);

/// Linear-interpolated quantile, q in [0, 1]. q=0.5 is the median.
double quantile(std::span<const double> x, double q);

/// Five-number summary plus mean; the basis of Figure 5's box plot.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

Summary summarize(std::span<const double> x);

}  // namespace nyqmon::sig
