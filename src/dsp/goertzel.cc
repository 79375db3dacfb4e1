#include "dsp/goertzel.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/check.h"

namespace nyqmon::dsp {

namespace {

double goertzel_coeff(double sample_rate_hz, double frequency_hz) {
  NYQMON_CHECK(sample_rate_hz > 0.0);
  NYQMON_CHECK(frequency_hz >= 0.0 && frequency_hz <= sample_rate_hz / 2.0);
  const double omega = 2.0 * std::numbers::pi * frequency_hz / sample_rate_hz;
  return 2.0 * std::cos(omega);
}

double goertzel_finish(double s1, double s2, double coeff, double n) {
  const double power = s1 * s1 + s2 * s2 - coeff * s1 * s2;
  return power / (n * n);
}

// Four independent Goertzel recurrences (lane j tracks coeff[j]), each
// evaluated as ((x[i] + coeff[j]*s1[j]) - s2[j]), goertzel_power's order.
void goertzel4(const double* x, std::size_t n, const double coeff[4],
               double s1[4], double s2[4]) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = x[i];
    for (int j = 0; j < 4; ++j) {
      const double s = (v + coeff[j] * s1[j]) - s2[j];
      s2[j] = s1[j];
      s1[j] = s;
    }
  }
}

}  // namespace

double goertzel_power(std::span<const double> x, double sample_rate_hz,
                      double frequency_hz) {
  NYQMON_CHECK(x.size() >= 2);
  const double n = static_cast<double>(x.size());
  const double coeff = goertzel_coeff(sample_rate_hz, frequency_hz);

  double s_prev = 0.0;
  double s_prev2 = 0.0;
  for (double v : x) {
    const double s = (v + coeff * s_prev) - s_prev2;
    s_prev2 = s_prev;
    s_prev = s;
  }
  return goertzel_finish(s_prev, s_prev2, coeff, n);
}

std::vector<double> goertzel_power_multi(
    std::span<const double> x, double sample_rate_hz,
    std::span<const double> frequencies_hz) {
  NYQMON_CHECK(x.size() >= 2);
  const double n = static_cast<double>(x.size());
  std::vector<double> out(frequencies_hz.size());
  for (std::size_t base = 0; base < frequencies_hz.size(); base += 4) {
    const std::size_t lanes = std::min<std::size_t>(
        4, frequencies_hz.size() - base);
    double coeff[4] = {0.0, 0.0, 0.0, 0.0};  // idle lanes run a harmless DC
    for (std::size_t j = 0; j < lanes; ++j)
      coeff[j] = goertzel_coeff(sample_rate_hz, frequencies_hz[base + j]);
    double s1[4] = {0.0, 0.0, 0.0, 0.0};
    double s2[4] = {0.0, 0.0, 0.0, 0.0};
    goertzel4(x.data(), x.size(), coeff, s1, s2);
    for (std::size_t j = 0; j < lanes; ++j)
      out[base + j] = goertzel_finish(s1[j], s2[j], coeff[j], n);
  }
  return out;
}

}  // namespace nyqmon::dsp
