#include "dsp/filter.h"

#include <cmath>
#include <numbers>

#include "dsp/fft.h"
#include "util/check.h"

namespace nyqmon::dsp {

namespace {
constexpr double kPi = std::numbers::pi;
}

std::vector<double> ideal_lowpass(std::span<const double> x,
                                  double sample_rate_hz, double cutoff_hz) {
  NYQMON_CHECK(!x.empty());
  NYQMON_CHECK(sample_rate_hz > 0.0);
  NYQMON_CHECK(cutoff_hz >= 0.0);
  const std::size_t n = x.size();
  // Half-spectrum brick wall: rfft/irfft do half the transform work of the
  // full complex path, and zeroing a one-sided bin zeroes its conjugate
  // image by construction.
  auto spectrum = rfft(x);
  for (std::size_t k = 0; k < spectrum.size(); ++k) {
    const double f = static_cast<double>(k) * sample_rate_hz /
                     static_cast<double>(n);
    if (f > cutoff_hz) spectrum[k] = cdouble(0.0, 0.0);
  }
  return irfft(spectrum, n);
}

std::vector<double> design_lowpass_fir(std::size_t taps, double cutoff_hz,
                                       double sample_rate_hz,
                                       WindowType window) {
  NYQMON_CHECK_MSG(taps >= 3 && taps % 2 == 1, "taps must be odd and >= 3");
  NYQMON_CHECK(sample_rate_hz > 0.0);
  NYQMON_CHECK(cutoff_hz > 0.0 && cutoff_hz <= sample_rate_hz / 2.0);

  const double fc = cutoff_hz / sample_rate_hz;  // normalized cutoff
  const auto w = make_window(window, taps, /*symmetric=*/true);
  const double mid = static_cast<double>(taps - 1) / 2.0;
  std::vector<double> h(taps);
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    const double sinc = t == 0.0 ? 2.0 * fc
                                 : std::sin(2.0 * kPi * fc * t) / (kPi * t);
    h[i] = sinc * w[i];
  }
  double sum = 0.0;
  for (double v : h) sum += v;
  NYQMON_ENSURE(sum != 0.0);
  for (double& v : h) v /= sum;  // unit DC gain
  return h;
}

std::vector<double> convolve(std::span<const double> x,
                             std::span<const double> h) {
  NYQMON_CHECK(!x.empty() && !h.empty());
  std::vector<double> out(x.size() + h.size() - 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < h.size(); ++j) out[i + j] += x[i] * h[j];
  return out;
}

std::vector<double> filter_same(std::span<const double> x,
                                std::span<const double> h) {
  NYQMON_CHECK_MSG(h.size() % 2 == 1, "filter_same needs an odd-length kernel");
  auto full = convolve(x, h);
  const std::size_t delay = (h.size() - 1) / 2;
  return std::vector<double>(full.begin() + static_cast<std::ptrdiff_t>(delay),
                             full.begin() + static_cast<std::ptrdiff_t>(delay + x.size()));
}

}  // namespace nyqmon::dsp
