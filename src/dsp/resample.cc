#include "dsp/resample.h"

#include <algorithm>
#include <cmath>

#include "dsp/fft.h"
#include "util/check.h"

namespace nyqmon::dsp {

std::vector<double> decimate(std::span<const double> x, std::size_t factor) {
  NYQMON_CHECK(factor >= 1);
  NYQMON_CHECK(!x.empty());
  std::vector<double> out;
  out.reserve(x.size() / factor + 1);
  for (std::size_t i = 0; i < x.size(); i += factor) out.push_back(x[i]);
  return out;
}

std::vector<double> resample_fourier(std::span<const double> x,
                                     std::size_t n_out) {
  NYQMON_CHECK(!x.empty());
  NYQMON_CHECK(n_out >= 1);
  const std::size_t n_in = x.size();
  if (n_out == n_in) return std::vector<double>(x.begin(), x.end());

  const auto spectrum = rfft(x);  // one-sided, n_in/2 + 1 bins

  // Copy the lower half of the spectrum into the new length's one-sided
  // spectrum, up to the smaller of the two Nyquist limits; irfft supplies
  // the conjugate image.
  std::vector<cdouble> out_spec(n_out / 2 + 1, cdouble(0.0, 0.0));
  const std::size_t half = std::min(n_in, n_out) / 2;
  for (std::size_t k = 0; k <= half; ++k) out_spec[k] = spectrum[k];
  // If min(n_in, n_out) is even, the bin at exactly its Nyquist frequency
  // must be real for a real result — enforce it.
  if (half >= 1 && 2 * half == std::min(n_in, n_out))
    out_spec[half] = cdouble(out_spec[half].real(), 0.0);

  auto out = irfft(out_spec, n_out);
  const double scale = static_cast<double>(n_out) / static_cast<double>(n_in);
  for (double& v : out) v *= scale;
  return out;
}

std::vector<double> interp_linear(std::span<const double> x,
                                  double sample_rate_hz,
                                  std::span<const double> query_times) {
  NYQMON_CHECK(!x.empty());
  NYQMON_CHECK(sample_rate_hz > 0.0);
  std::vector<double> out;
  out.reserve(query_times.size());
  const double dt = 1.0 / sample_rate_hz;
  const double t_max = static_cast<double>(x.size() - 1) * dt;
  for (double t : query_times) {
    const double idx = std::clamp(t, 0.0, t_max) / dt;
    const std::size_t i0 = static_cast<std::size_t>(std::floor(idx));
    const std::size_t i1 = std::min(i0 + 1, x.size() - 1);
    const double frac = idx - std::floor(idx);
    out.push_back(x[i0] * (1.0 - frac) + x[i1] * frac);
  }
  return out;
}

}  // namespace nyqmon::dsp
