#include "signal/generators.h"

#include <cmath>
#include <numbers>

#include "util/check.h"

namespace nyqmon::sig {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr double kDay = 86400.0;
}  // namespace

std::vector<double> make_sine(double fs_hz, std::size_t n, double freq_hz,
                              double amplitude, double phase) {
  NYQMON_CHECK(fs_hz > 0.0);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs_hz;
    x[i] = amplitude * std::sin(kTwoPi * freq_hz * t + phase);
  }
  return x;
}

std::vector<double> make_tones(double fs_hz, std::size_t n,
                               const std::vector<Tone>& tones) {
  NYQMON_CHECK(fs_hz > 0.0);
  std::vector<double> x(n, 0.0);
  for (const auto& tone : tones) {
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) / fs_hz;
      x[i] += tone.amplitude * std::sin(kTwoPi * tone.frequency_hz * t + tone.phase);
    }
  }
  return x;
}

std::shared_ptr<SumOfSines> make_bandlimited_process(double bandwidth_hz,
                                                     double rms,
                                                     std::size_t n_tones,
                                                     Rng& rng,
                                                     double dc_offset,
                                                     SpectralShape shape) {
  NYQMON_CHECK(bandwidth_hz > 0.0);
  NYQMON_CHECK(n_tones >= 1);
  NYQMON_CHECK(rms >= 0.0);

  std::vector<Tone> tones(n_tones);
  for (std::size_t i = 0; i < n_tones; ++i) {
    double f = i == 0 ? bandwidth_hz  // pin the band edge
                      : rng.log_uniform(bandwidth_hz / 10.0, bandwidth_hz);
    tones[i].frequency_hz = f;
    tones[i].amplitude = shape == SpectralShape::kRed
                             ? 1.0 / std::sqrt(f / bandwidth_hz * 10.0)
                             : 1.0;
    tones[i].phase = rng.uniform(0.0, kTwoPi);
  }
  // Scale amplitudes so the process RMS (sum of a_i^2/2) matches `rms`.
  double power = 0.0;
  for (const auto& tone : tones) power += tone.amplitude * tone.amplitude / 2.0;
  const double scale = power > 0.0 ? rms / std::sqrt(power) : 0.0;
  for (auto& tone : tones) tone.amplitude *= scale;
  return std::make_shared<SumOfSines>(std::move(tones), dc_offset);
}

std::shared_ptr<GaussianBumpTrain> make_burst_process(double duration_s,
                                                      double rate_per_s,
                                                      double sigma_s,
                                                      double amplitude_mean,
                                                      Rng& rng,
                                                      double baseline) {
  NYQMON_CHECK(duration_s > 0.0);
  NYQMON_CHECK(rate_per_s >= 0.0);
  std::vector<GaussianBumpTrain::Bump> bumps;
  double t = rate_per_s > 0.0 ? rng.exponential(rate_per_s) : duration_s + 1.0;
  while (t < duration_s) {
    GaussianBumpTrain::Bump b;
    b.center_s = t;
    b.amplitude = rng.exponential(1.0 / amplitude_mean);
    bumps.push_back(b);
    t += rng.exponential(rate_per_s);
  }
  // At least one bump so the process is not identically the baseline.
  if (bumps.empty())
    bumps.push_back({rng.uniform(0.0, duration_s), amplitude_mean});
  return std::make_shared<GaussianBumpTrain>(std::move(bumps), sigma_s, baseline);
}

std::shared_ptr<SmoothStepTrain> make_flap_process(double duration_s,
                                                   double rate_per_s,
                                                   double width_s,
                                                   double amplitude,
                                                   Rng& rng,
                                                   double baseline) {
  NYQMON_CHECK(duration_s > 0.0);
  NYQMON_CHECK(rate_per_s >= 0.0);
  std::vector<SmoothStepTrain::Step> steps;
  double level = 0.0;
  double t = rate_per_s > 0.0 ? rng.exponential(rate_per_s) : duration_s + 1.0;
  while (t < duration_s) {
    // Alternate up/down so the level stays bounded (a flap, not a ramp).
    const double a = level <= 0.0 ? amplitude : -amplitude;
    steps.push_back({t, a});
    level += a;
    t += rng.exponential(rate_per_s);
  }
  if (steps.empty()) steps.push_back({duration_s / 2.0, amplitude});
  return std::make_shared<SmoothStepTrain>(std::move(steps), width_s, baseline);
}

std::shared_ptr<SumOfSines> make_diurnal(double peak_to_peak,
                                         std::size_t harmonics, Rng& rng,
                                         double dc_offset) {
  NYQMON_CHECK(harmonics >= 1);
  std::vector<Tone> tones;
  tones.reserve(harmonics);
  double amp = peak_to_peak / 2.0;
  for (std::size_t h = 1; h <= harmonics; ++h) {
    Tone tone;
    tone.frequency_hz = static_cast<double>(h) / kDay;
    tone.amplitude = amp / static_cast<double>(h * h);
    tone.phase = rng.uniform(0.0, kTwoPi);
    tones.push_back(tone);
  }
  return std::make_shared<SumOfSines>(std::move(tones), dc_offset);
}

}  // namespace nyqmon::sig
