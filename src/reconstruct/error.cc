#include "reconstruct/error.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace nyqmon::rec {

double l2_distance(std::span<const double> a, std::span<const double> b) {
  NYQMON_CHECK(a.size() == b.size());
  NYQMON_CHECK(!a.empty());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

double rmse(std::span<const double> a, std::span<const double> b) {
  return l2_distance(a, b) / std::sqrt(static_cast<double>(a.size()));
}

double nrmse(std::span<const double> a, std::span<const double> b) {
  const double range = *std::max_element(a.begin(), a.end()) -
                       *std::min_element(a.begin(), a.end());
  const double e = rmse(a, b);
  if (range == 0.0)
    return e == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return e / range;
}

double max_abs_error(std::span<const double> a, std::span<const double> b) {
  NYQMON_CHECK(a.size() == b.size());
  NYQMON_CHECK(!a.empty());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

}  // namespace nyqmon::rec
