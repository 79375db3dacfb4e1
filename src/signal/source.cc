#include "signal/source.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/check.h"

namespace nyqmon::sig {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
// Spectrum-floor used to define the effective bandwidth of non-strictly
// band-limited atoms (Gaussian bumps, tanh steps).
constexpr double kSpectrumFloor = 1e-6;
}  // namespace

RegularSeries ContinuousSignal::sample(double t0, double dt,
                                       std::size_t n) const {
  NYQMON_CHECK(dt > 0.0);
  NYQMON_CHECK(n >= 1);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = value(t0 + static_cast<double>(i) * dt);
  return RegularSeries(t0, dt, std::move(v));
}

SumOfSines::SumOfSines(std::vector<Tone> tones, double dc_offset)
    : tones_(std::move(tones)), dc_(dc_offset) {
  for (const auto& tone : tones_) NYQMON_CHECK(tone.frequency_hz >= 0.0);
}

double SumOfSines::value(double t) const {
  double v = dc_;
  for (const auto& tone : tones_)
    v += tone.amplitude * std::sin(kTwoPi * tone.frequency_hz * t + tone.phase);
  return v;
}

double SumOfSines::bandwidth_hz() const {
  double b = 0.0;
  for (const auto& tone : tones_) b = std::max(b, tone.frequency_hz);
  return b;
}

GaussianBumpTrain::GaussianBumpTrain(std::vector<Bump> bumps, double sigma_s,
                                     double baseline)
    : bumps_(std::move(bumps)), sigma_(sigma_s), baseline_(baseline) {
  NYQMON_CHECK(sigma_s > 0.0);
  std::sort(bumps_.begin(), bumps_.end(),
            [](const Bump& a, const Bump& b) { return a.center_s < b.center_s; });
}

double GaussianBumpTrain::value(double t) const {
  // Only bumps within +-8 sigma contribute above double precision noise.
  double v = baseline_;
  const double reach = 8.0 * sigma_;
  auto lo = std::lower_bound(
      bumps_.begin(), bumps_.end(), t - reach,
      [](const Bump& b, double x) { return b.center_s < x; });
  for (auto it = lo; it != bumps_.end() && it->center_s <= t + reach; ++it) {
    const double d = (t - it->center_s) / sigma_;
    v += it->amplitude * std::exp(-0.5 * d * d);
  }
  return v;
}

double GaussianBumpTrain::bandwidth_hz() const {
  // |G(f)| ~ exp(-2 pi^2 f^2 sigma^2); solve for the kSpectrumFloor point.
  return std::sqrt(std::log(1.0 / kSpectrumFloor) / 2.0) /
         (std::numbers::pi * sigma_);
}

SmoothStepTrain::SmoothStepTrain(std::vector<Step> steps, double width_s,
                                 double baseline)
    : steps_(std::move(steps)), width_(width_s) {
  NYQMON_CHECK(width_s > 0.0);
  for (const auto& s : steps_)
    NYQMON_CHECK(std::isfinite(s.center_s) && std::isfinite(s.amplitude));
  std::sort(steps_.begin(), steps_.end(),
            [](const Step& a, const Step& b) { return a.center_s < b.center_s; });
  // value()'s own term with tanh = 1, added in value()'s order.
  settled_.reserve(steps_.size() + 1);
  settled_.push_back(baseline);
  for (const auto& s : steps_)
    settled_.push_back(settled_.back() + s.amplitude * 0.5 * (1.0 + 1.0));
}

double SmoothStepTrain::value(double t) const {
  // x falls as the centre rises, so the steps split into three runs:
  // settled (x >= kSaturation, tanh = 1), live, and pending
  // (x <= -kSaturation, tanh = -1). A NaN t makes every step live.
  const auto x = [&](const Step& s) { return (t - s.center_s) / width_; };
  const auto term = [&](const Step& s) {
    return s.amplitude * 0.5 * (1.0 + std::tanh(x(s)));
  };
  const auto lo = std::partition_point(
      steps_.begin(), steps_.end(),
      [&](const Step& s) { return x(s) >= kSaturation; });
  const auto hi = std::partition_point(
      lo, steps_.end(), [&](const Step& s) { return !(x(s) <= -kSaturation); });
  double v = settled_[static_cast<std::size_t>(lo - steps_.begin())];
  auto it = lo;
  for (; it != hi; ++it) v += term(*it);
  // Pending steps add ±0.0, which leaves every sum but -0.0 unchanged.
  if (v == 0.0 && std::signbit(v))
    for (; it != steps_.end(); ++it) v += term(*it);
  return v;
}

double SmoothStepTrain::bandwidth_hz() const {
  // The tanh edge's spectrum magnitude ~ 1/sinh(pi^2 f w) decays like
  // exp(-pi^2 f w); the kSpectrumFloor point is at
  // f = ln(1/floor) / (pi^2 w).
  return std::log(1.0 / kSpectrumFloor) / (std::numbers::pi * std::numbers::pi * width_);
}

void CompositeSignal::add(std::shared_ptr<const ContinuousSignal> part,
                          double weight) {
  NYQMON_CHECK(part != nullptr);
  parts_.emplace_back(std::move(part), weight);
}

double CompositeSignal::value(double t) const {
  double v = 0.0;
  for (const auto& [part, w] : parts_) v += w * part->value(t);
  return v;
}

double CompositeSignal::bandwidth_hz() const {
  double b = 0.0;
  for (const auto& [part, w] : parts_)
    if (w != 0.0) b = std::max(b, part->bandwidth_hz());
  return b;
}

PiecewiseSignal::PiecewiseSignal(
    std::vector<std::shared_ptr<const ContinuousSignal>> segments,
    std::vector<double> switch_times)
    : segments_(std::move(segments)), switch_times_(std::move(switch_times)) {
  NYQMON_CHECK(!segments_.empty());
  NYQMON_CHECK(switch_times_.size() == segments_.size() - 1);
  NYQMON_CHECK(std::is_sorted(switch_times_.begin(), switch_times_.end()));
  for (const auto& s : segments_) NYQMON_CHECK(s != nullptr);
}

double PiecewiseSignal::value(double t) const {
  const auto it =
      std::upper_bound(switch_times_.begin(), switch_times_.end(), t);
  return segments_[static_cast<std::size_t>(it - switch_times_.begin())]
      ->value(t);
}

double PiecewiseSignal::bandwidth_hz() const {
  double b = 0.0;
  for (const auto& s : segments_) b = std::max(b, s->bandwidth_hz());
  return b;
}

}  // namespace nyqmon::sig
