#include "scenario/waveforms.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace nyqmon::scn {

LinearDrift::LinearDrift(std::shared_ptr<const sig::ContinuousSignal> base,
                         double offset, double slope_per_s)
    : base_(std::move(base)), offset_(offset), slope_(slope_per_s) {
  NYQMON_CHECK(base_ != nullptr);
}

double LinearDrift::value(double t) const {
  return base_->value(t) + offset_ + slope_ * t;
}

double LinearDrift::bandwidth_hz() const { return base_->bandwidth_hz(); }

OutageGate::OutageGate(std::shared_ptr<const sig::ContinuousSignal> base,
                       std::vector<OutageWindow> outages, double edge_width_s,
                       double floor)
    : base_(std::move(base)),
      outages_(std::move(outages)),
      edge_width_(edge_width_s),
      floor_(floor),
      closed_is_floor_(std::isfinite(floor) &&
                       !(floor == 0.0 && std::signbit(floor))) {
  NYQMON_CHECK(base_ != nullptr);
  NYQMON_CHECK(edge_width_ > 0.0);
  std::sort(outages_.begin(), outages_.end(),
            [](const OutageWindow& a, const OutageWindow& b) {
              return a.begin_s < b.begin_s;
            });
  // Merge overlapping windows so gate() is a simple max over disjoint dips.
  std::vector<OutageWindow> merged;
  for (const auto& w : outages_) {
    NYQMON_CHECK(w.end_s >= w.begin_s);
    if (!merged.empty() && w.begin_s <= merged.back().end_s)
      merged.back().end_s = std::max(merged.back().end_s, w.end_s);
    else
      merged.push_back(w);
  }
  outages_ = std::move(merged);
}

double OutageGate::gate(double t) const {
  // Each outage contributes a smooth dip 0.5*(tanh((t-a)/w) - tanh((t-b)/w))
  // that reaches ~1 inside [a, b]; windows are disjoint after merging, so
  // the deepest dip wins. tanh saturates fast: only the two windows nearest
  // t can matter, but the trains are short (tens of windows) so a linear
  // scan is fine.
  double dip = 0.0;
  for (const auto& w : outages_) {
    if (t < w.begin_s - 8.0 * edge_width_) break;
    if (t > w.end_s + 8.0 * edge_width_) continue;
    const double d = 0.5 * (std::tanh((t - w.begin_s) / edge_width_) -
                            std::tanh((t - w.end_s) / edge_width_));
    dip = std::max(dip, d);
  }
  return std::clamp(1.0 - dip, 0.0, 1.0);
}

double OutageGate::value(double t) const {
  const double g = gate(t);
  if (g == 0.0 && closed_is_floor_) return floor_;
  return floor_ + g * (base_->value(t) - floor_);
}

double OutageGate::bandwidth_hz() const {
  // The tanh edge's spectrum decays exponentially; 1.4/width is the 1e-6
  // floor (same convention as sig::SmoothStepTrain). Gating multiplies in
  // the time domain (convolves spectra), so the band limit is conservatively
  // the sum of the parts.
  const double edge_bw = outages_.empty() ? 0.0 : 1.4 / edge_width_;
  return base_->bandwidth_hz() + edge_bw;
}

ClockWarp::ClockWarp(std::shared_ptr<const sig::ContinuousSignal> base,
                     double offset_s, double drift)
    : base_(std::move(base)), offset_(offset_s), drift_(drift) {
  NYQMON_CHECK(base_ != nullptr);
  NYQMON_CHECK(drift_ > -1.0);
}

double ClockWarp::value(double t) const {
  return base_->value(offset_ + (1.0 + drift_) * t);
}

double ClockWarp::bandwidth_hz() const {
  return base_->bandwidth_hz() * (1.0 + std::abs(drift_));
}

}  // namespace nyqmon::scn
