// Reconstruction-quality metrics: how far a reconstructed trace is from the
// original. Figure 6 reports the L2 distance; the benches additionally use
// normalized RMSE so errors are comparable across metrics with different
// value ranges.
#pragma once

#include <span>

namespace nyqmon::rec {

/// Euclidean distance sqrt(sum (a-b)^2); sizes must match.
double l2_distance(std::span<const double> a, std::span<const double> b);

/// Root-mean-square error.
double rmse(std::span<const double> a, std::span<const double> b);

/// RMSE normalized by the range (max-min) of `a`; 0 when `a` is constant
/// and the sequences are equal, +inf when constant but different.
double nrmse(std::span<const double> a, std::span<const double> b);

/// Largest absolute pointwise difference.
double max_abs_error(std::span<const double> a, std::span<const double> b);

}  // namespace nyqmon::rec
