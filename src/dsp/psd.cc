#include "dsp/psd.h"

#include <algorithm>
#include <cmath>

#include "dsp/fft.h"
#include "dsp/kernels.h"
#include "dsp/workspace.h"
#include "util/check.h"

namespace nyqmon::dsp {

double Psd::total_energy() const {
  double e = 0.0;
  for (double p : power) e += p;
  return e;
}

double Psd::resolution_hz() const {
  return frequency_hz.size() >= 2 ? frequency_hz[1] - frequency_hz[0] : 0.0;
}

std::size_t Psd::cumulative_energy_bin(double fraction) const {
  NYQMON_CHECK(fraction > 0.0 && fraction <= 1.0);
  NYQMON_CHECK(!power.empty());
  const double target = fraction * total_energy();
  double cum = 0.0;
  for (std::size_t k = 0; k < power.size(); ++k) {
    cum += power[k];
    if (cum >= target) return k;
  }
  return power.size() - 1;
}

double Psd::cumulative_energy_frequency(double fraction) const {
  return frequency_hz[cumulative_energy_bin(fraction)];
}

namespace {

// out[i] = re(x[i])*re(x[i]) + im(x[i])*im(x[i]).
void squared_magnitude(const cdouble* x, double* out, std::size_t n) {
  const double* xd = reinterpret_cast<const double*>(x);
  for (std::size_t i = 0; i < n; ++i) {
    const double re = xd[2 * i], im = xd[2 * i + 1];
    out[i] = re * re + im * im;
  }
}

// One-sided PSD from the half spectrum (rfft output) of a real block of
// original length n.
Psd one_sided(const std::vector<cdouble>& spectrum, std::size_t n, double fs,
              double norm) {
  const std::size_t half = n / 2 + 1;
  NYQMON_ENSURE(spectrum.size() == half);
  Psd psd;
  psd.sample_rate_hz = fs;
  psd.frequency_hz.resize(half);
  psd.power.resize(half);
  squared_magnitude(spectrum.data(), psd.power.data(), half);
  for (std::size_t k = 0; k < half; ++k) {
    psd.frequency_hz[k] = static_cast<double>(k) * fs / static_cast<double>(n);
    double p = psd.power[k] / norm;
    // Fold the negative-frequency half onto positive bins (except DC and,
    // for even n, the Nyquist bin which have no mirror).
    const bool has_mirror = k != 0 && !(n % 2 == 0 && k == n / 2);
    if (has_mirror) p *= 2.0;
    psd.power[k] = p;
  }
  return psd;
}

std::vector<double> preprocess(std::span<const double> x, bool remove_mean,
                               WindowType window) {
  std::vector<double> block(x.begin(), x.end());
  if (remove_mean) {
    const double mean =
        sum(block.data(), block.size()) / static_cast<double>(block.size());
    sub_scalar_inplace(block.data(), mean, block.size());
  }
  const auto& w = this_thread_workspace().window(window, block.size());
  mul_inplace(block.data(), w.data(), block.size());
  return block;
}

}  // namespace

Psd periodogram(std::span<const double> x, double sample_rate_hz,
                const PeriodogramConfig& config) {
  NYQMON_CHECK_MSG(x.size() >= 2, "periodogram needs at least 2 samples");
  NYQMON_CHECK(sample_rate_hz > 0.0);
  const auto block = preprocess(x, config.remove_mean, config.window);
  const auto spectrum = rfft(block);
  // Normalize by N * sum(w^2): with a rectangular window this reduces to
  // |X[k]|^2 / N^2, whose one-sided sum equals the signal's mean-square
  // power (Parseval), e.g. ~0.5 for a unit-amplitude sine.
  const double norm =
      static_cast<double>(x.size()) *
      this_thread_workspace().window_energy(config.window, x.size());
  return one_sided(spectrum, x.size(), sample_rate_hz, norm);
}

Psd welch(std::span<const double> x, double sample_rate_hz,
          const WelchConfig& config) {
  NYQMON_CHECK_MSG(x.size() >= 2, "welch needs at least 2 samples");
  NYQMON_CHECK(sample_rate_hz > 0.0);
  NYQMON_CHECK(config.overlap >= 0.0 && config.overlap < 1.0);

  std::size_t seg = config.segment_length;
  if (seg == 0) {
    // Aim for ~8 segments at 50% overlap; fall back to the whole block.
    seg = std::max<std::size_t>(2, x.size() / 4);
  }
  seg = std::min(seg, x.size());
  const std::size_t hop = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(static_cast<double>(seg) *
                                              (1.0 - config.overlap))));

  Psd acc;
  std::size_t count = 0;
  for (std::size_t start = 0; start + seg <= x.size(); start += hop) {
    PeriodogramConfig pc;
    pc.window = config.window;
    pc.remove_mean = config.remove_mean;
    Psd p = periodogram(x.subspan(start, seg), sample_rate_hz, pc);
    if (count == 0) {
      acc = std::move(p);
    } else {
      for (std::size_t k = 0; k < acc.power.size(); ++k)
        acc.power[k] += p.power[k];
    }
    ++count;
    if (start + seg == x.size()) break;
  }
  NYQMON_ENSURE(count > 0);
  for (double& p : acc.power) p /= static_cast<double>(count);
  return acc;
}

}  // namespace nyqmon::dsp
