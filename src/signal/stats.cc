#include "signal/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace nyqmon::sig {

double mean(std::span<const double> x) {
  NYQMON_CHECK(!x.empty());
  double sum = 0.0;
  for (double v : x) sum += v;
  return sum / static_cast<double>(x.size());
}

double variance(std::span<const double> x) {
  NYQMON_CHECK(!x.empty());
  const double m = mean(x);
  double acc = 0.0;
  for (double v : x) acc += (v - m) * (v - m);
  return acc / static_cast<double>(x.size());
}

double stddev(std::span<const double> x) { return std::sqrt(variance(x)); }

double quantile(std::span<const double> x, double q) {
  NYQMON_CHECK(!x.empty());
  NYQMON_CHECK(q >= 0.0 && q <= 1.0);
  std::vector<double> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - std::floor(pos);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::span<const double> x) {
  NYQMON_CHECK(!x.empty());
  std::vector<double> sorted(x.begin(), x.end());
  std::sort(sorted.begin(), sorted.end());
  auto q_of_sorted = [&](double q) {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - std::floor(pos);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  };
  Summary s;
  s.count = sorted.size();
  s.min = sorted.front();
  s.q1 = q_of_sorted(0.25);
  s.median = q_of_sorted(0.5);
  s.q3 = q_of_sorted(0.75);
  s.max = sorted.back();
  s.mean = mean(x);
  return s;
}

}  // namespace nyqmon::sig
