#include "dsp/detrend.h"

#include "dsp/kernels.h"
#include "util/check.h"

namespace nyqmon::dsp {

std::vector<double> remove_mean(std::span<const double> x) {
  NYQMON_CHECK(!x.empty());
  const double mean = sum(x.data(), x.size()) / static_cast<double>(x.size());
  std::vector<double> out(x.begin(), x.end());
  sub_scalar_inplace(out.data(), mean, out.size());
  return out;
}

LineFit fit_line(std::span<const double> x) {
  NYQMON_CHECK(!x.empty());
  const double n = static_cast<double>(x.size());
  // Closed-form least squares with t = 0..n-1. The index sums have exact
  // integer closed forms (exact in double well past any window length);
  // the data sums go through the striped reductions of dsp/kernels.h.
  const std::size_t sz = x.size();
  const double sum_t = static_cast<double>(sz * (sz - 1) / 2);
  const double sum_tt =
      static_cast<double>(sz * (sz - 1) / 2) * static_cast<double>(2 * sz - 1) /
      3.0;
  const double sum_x = sum(x.data(), sz);
  double sum_tx = 0.0;
  {
    // dot(x, ramp) without materializing the ramp: same striped
    // 4-accumulator definition as dsp::dot.
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    const std::size_t n4 = sz - sz % 4;
    for (std::size_t i = 0; i < n4; i += 4) {
      a0 += static_cast<double>(i) * x[i];
      a1 += static_cast<double>(i + 1) * x[i + 1];
      a2 += static_cast<double>(i + 2) * x[i + 2];
      a3 += static_cast<double>(i + 3) * x[i + 3];
    }
    sum_tx = (a0 + a2) + (a1 + a3);
    for (std::size_t i = n4; i < sz; ++i)
      sum_tx += static_cast<double>(i) * x[i];
  }
  const double denom = n * sum_tt - sum_t * sum_t;
  LineFit fit;
  if (denom == 0.0) {
    fit.intercept = sum_x / n;
    fit.slope = 0.0;
  } else {
    fit.slope = (n * sum_tx - sum_t * sum_x) / denom;
    fit.intercept = (sum_x - fit.slope * sum_t) / n;
  }
  return fit;
}

std::vector<double> remove_linear_trend(std::span<const double> x) {
  const LineFit fit = fit_line(x);
  std::vector<double> out;
  out.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out.push_back(x[i] - (fit.intercept + fit.slope * static_cast<double>(i)));
  return out;
}

}  // namespace nyqmon::dsp
