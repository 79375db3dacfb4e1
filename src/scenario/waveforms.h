// Scenario waveform adaptors — the decorators scenario groups wrap around
// the base ContinuousSignal atoms in signal/source.h.
//
// Every adaptor is itself a ContinuousSignal, so families compose freely:
// a monotone counter is a LinearDrift plus a positive step train; an outage
// scenario is any signal behind an OutageGate; a skewed device is any
// signal behind a ClockWarp. All adaptors report an honest bandwidth_hz()
// (the max of the wrapped signal's band limit and any edge energy the
// adaptor introduces) so the Nyquist ground truth stays valid.
//
// Ownership: adaptors hold shared_ptr references to the signals they wrap;
// a built scenario signal graph is immutable and freely shareable across
// streams (cross-stream correlation shares one base part by pointer).
// Threading: value() is const and lock-free; concurrent evaluation from
// engine workers is safe. Determinism: adaptors hold no RNG state — all
// randomness is drawn at construction time by the scenario builder.
#pragma once

#include <memory>
#include <vector>

#include "signal/source.h"

namespace nyqmon::scn {

/// base(t) + offset + slope * t — the ramp under a monotone counter.
/// Reports the base signal's bandwidth (a linear ramp is DC-dominated; its
/// spectral energy sits below any practical estimation floor).
class LinearDrift final : public sig::ContinuousSignal {
 public:
  LinearDrift(std::shared_ptr<const sig::ContinuousSignal> base, double offset,
              double slope_per_s);

  double value(double t) const override;
  double bandwidth_hz() const override;

 private:
  std::shared_ptr<const sig::ContinuousSignal> base_;
  double offset_;
  double slope_;
};

/// One dropout/outage window on the signal timeline.
struct OutageWindow {
  double begin_s = 0.0;
  double end_s = 0.0;
};

/// Collapses the wrapped signal to `floor` during outage windows, with
/// smooth tanh edges of width `edge_width_s` (so the gate's own band limit
/// ~1.4/edge_width is known and bounded):
///   value(t) = floor + g(t) * (base(t) - floor),  g in [0, 1].
/// Models devices that stop reporting real readings during an outage and
/// return a stuck floor value instead.
///
/// Where the gate is fully closed (g == 0.0) value() returns the floor
/// without evaluating the base: floor + 0.0 * (finite) is exactly the
/// floor. That holds for every finite floor but -0.0 (-0.0 + +0.0 is
/// +0.0), so such a floor, or a non-finite one, still evaluates the base.
/// The one output this changes is a base that is inf or NaN at a fully
/// closed t: it reads the stuck floor, as the model says, not NaN.
class OutageGate final : public sig::ContinuousSignal {
 public:
  OutageGate(std::shared_ptr<const sig::ContinuousSignal> base,
             std::vector<OutageWindow> outages, double edge_width_s,
             double floor);

  double value(double t) const override;
  double bandwidth_hz() const override;

  /// The gate alone: 1 = healthy, 0 = fully in outage.
  double gate(double t) const;

 private:
  std::shared_ptr<const sig::ContinuousSignal> base_;
  std::vector<OutageWindow> outages_;  // sorted, non-overlapping
  double edge_width_;
  double floor_;
  bool closed_is_floor_;  // floor_ + 0.0 * (finite) is exactly floor_
};

/// Per-device clock skew and drift: value(t) = base(offset + (1+drift)*t).
/// Models a poller whose timestamps are offset from the fleet epoch and
/// whose local oscillator runs fast or slow by `drift` (dimensionless,
/// e.g. 200e-6 for 200 ppm). Reported bandwidth scales by (1 + |drift|) —
/// a fast clock compresses the signal's timeline.
class ClockWarp final : public sig::ContinuousSignal {
 public:
  ClockWarp(std::shared_ptr<const sig::ContinuousSignal> base, double offset_s,
            double drift);

  double value(double t) const override;
  double bandwidth_hz() const override;

  double offset_s() const { return offset_; }
  double drift() const { return drift_; }

 private:
  std::shared_ptr<const sig::ContinuousSignal> base_;
  double offset_;
  double drift_;
};

}  // namespace nyqmon::scn
