#include "nyquist/targeted_detector.h"

#include <cmath>

#include "dsp/goertzel.h"
#include "dsp/kernels.h"
#include "util/check.h"

namespace nyqmon::nyq {

TargetedAliasingDetector::TargetedAliasingDetector(
    TargetedDetectorConfig config)
    : config_(config) {
  NYQMON_CHECK(config_.rate_ratio > 1.0);
  NYQMON_CHECK_MSG(
      std::abs(config_.rate_ratio - std::round(config_.rate_ratio)) > 1e-9,
      "rate_ratio must not be an integer");
  NYQMON_CHECK(config_.power_fraction_threshold > 0.0);
}

std::vector<double> TargetedAliasingDetector::default_candidates() {
  std::vector<double> c;
  for (int h = 1; h <= 4; ++h) c.push_back(static_cast<double>(h) / 86400.0);
  for (double period : {3600.0, 300.0, 60.0, 30.0, 15.0, 10.0, 5.0})
    c.push_back(1.0 / period);
  return c;
}

TargetedDetection TargetedAliasingDetector::probe(
    const std::function<double(double)>& measure, double t0,
    double duration_s, double slow_rate_hz,
    const std::vector<double>& candidates_hz) const {
  NYQMON_CHECK(measure != nullptr);
  NYQMON_CHECK(duration_s > 0.0);
  NYQMON_CHECK(slow_rate_hz > 0.0);
  NYQMON_CHECK(!candidates_hz.empty());

  const double fast_rate = slow_rate_hz * config_.rate_ratio;
  auto acquire = [&](double rate) {
    const std::size_t n = std::max<std::size_t>(
        16, static_cast<std::size_t>(std::floor(duration_s * rate)));
    std::vector<double> v(n);
    const double dt = 1.0 / rate;
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = measure(t0 + static_cast<double>(i) * dt);
      mean += v[i];
    }
    mean /= static_cast<double>(n);
    for (auto& x : v) x -= mean;  // DC would swamp the candidate powers
    return v;
  };
  const auto fast = acquire(fast_rate);
  const auto slow = acquire(slow_rate_hz);

  TargetedDetection out;

  // The fast stream's (mean-removed) total power anchors the "is this
  // candidate actually present" floor — a candidate carrying a negligible
  // share of the stream's energy cannot indict the slow rate.
  double fast_variance =
      dsp::dot(fast.data(), fast.data(), fast.size()) /
      static_cast<double>(fast.size());
  if (fast_variance <= 0.0) return out;

  // Batch every eligible candidate through one multi-lane Goertzel pass
  // over the fast stream (4 recurrences per sweep instead of 1).
  std::vector<double> eligible;
  for (double f : candidates_hz) {
    if (f <= slow_rate_hz / 2.0) continue;       // cannot alias
    if (f >= fast_rate / 2.0) continue;          // invisible to both
    eligible.push_back(f);
    ++out.candidates_probed;
  }
  const auto fast_power =
      dsp::goertzel_power_multi(fast, fast_rate, eligible);

  // The slow stream folds f to |f - k*fs| for the k that lands the alias
  // in [0, fs/2]; energy at the *original* frequency is gone there.
  // Compare the slow stream's power at the alias location: if the energy
  // moved, the slow rate is insufficient for this candidate.
  const double fs = slow_rate_hz;
  std::vector<double> loud;        // candidates above the power floor
  std::vector<double> alias_freqs;  // their fold locations in the slow band
  std::vector<double> loud_power;
  for (std::size_t i = 0; i < eligible.size(); ++i) {
    if (fast_power[i] < config_.power_fraction_threshold * fast_variance)
      continue;
    double alias = std::fmod(eligible[i], fs);
    if (alias > fs / 2.0) alias = fs - alias;
    loud.push_back(eligible[i]);
    alias_freqs.push_back(alias);
    loud_power.push_back(fast_power[i]);
  }
  if (!loud.empty()) {
    const auto p_alias = dsp::goertzel_power_multi(slow, fs, alias_freqs);
    for (std::size_t i = 0; i < loud.size(); ++i) {
      // Energy that reappears at a different frequency than it occupies in
      // the fast stream = aliasing. (When alias == f the candidate did not
      // actually fold; the band checks above exclude that case.)
      if (p_alias[i] > 0.25 * loud_power[i]) {
        out.offending_frequencies_hz.push_back(loud[i]);
      }
    }
  }
  out.aliasing_detected = !out.offending_frequencies_hz.empty();
  return out;
}

}  // namespace nyqmon::nyq
