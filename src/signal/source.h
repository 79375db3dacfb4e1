// Continuous ground-truth signals.
//
// A ContinuousSignal can be evaluated at any time t — it models the
// underlying physical metric (a temperature, a link's utilization) that a
// monitoring system samples. Synthetic sources report their true band
// limit, which is what lets nyqmon *validate* Nyquist-rate estimates —
// something the paper could not do against production data.
//
// All concrete sources here are built from finite sums of band-limited
// atoms (sines, Gaussian bumps, smooth steps), so they are exactly or
// almost-exactly band-limited by construction.
#pragma once

#include <memory>
#include <vector>

#include "signal/timeseries.h"

namespace nyqmon::sig {

class ContinuousSignal {
 public:
  virtual ~ContinuousSignal() = default;

  /// Signal value at time t (seconds).
  virtual double value(double t) const = 0;

  /// Frequency above which the signal carries (essentially) no energy.
  /// The true Nyquist rate of the signal is twice this.
  virtual double bandwidth_hz() const = 0;

  /// Sample uniformly: n samples starting at t0, spaced dt.
  RegularSeries sample(double t0, double dt, std::size_t n) const;
};

/// One sinusoidal component.
struct Tone {
  double frequency_hz = 0.0;
  double amplitude = 1.0;
  double phase = 0.0;
};

/// Finite sum of sinusoids plus a DC offset: exactly band-limited at the
/// highest component frequency.
class SumOfSines final : public ContinuousSignal {
 public:
  SumOfSines(std::vector<Tone> tones, double dc_offset = 0.0);

  double value(double t) const override;
  double bandwidth_hz() const override;
  const std::vector<Tone>& tones() const { return tones_; }

 private:
  std::vector<Tone> tones_;
  double dc_;
};

/// Train of Gaussian bumps sum_i a_i * exp(-(t-t_i)^2 / (2 sigma^2)) —
/// models bursty event metrics (drops, FCS errors). A Gaussian bump's
/// spectrum decays as exp(-2 pi^2 f^2 sigma^2); we report the frequency
/// where it falls to 1e-6 of peak as the effective bandwidth.
class GaussianBumpTrain final : public ContinuousSignal {
 public:
  struct Bump {
    double center_s = 0.0;
    double amplitude = 1.0;
  };
  GaussianBumpTrain(std::vector<Bump> bumps, double sigma_s,
                    double baseline = 0.0);

  double value(double t) const override;
  double bandwidth_hz() const override;

 private:
  std::vector<Bump> bumps_;  // sorted by center
  double sigma_;
  double baseline_;
};

/// Sum of smooth level shifts a_i * 0.5*(1 + tanh((t - t_i)/w)) — models
/// fail-stop / link-flap style regime changes with transition width w.
/// The tanh edge's spectrum decays exponentially with f*w; bandwidth is
/// reported at the 1e-6 point.
///
/// value() costs O(log n + k) for n steps, k of them less than kSaturation
/// widths from t, and returns the bits of the plain baseline-first sum over
/// all n steps in centre order. A step kSaturation or more widths behind t
/// has tanh exactly 1 and adds exactly its amplitude: a prefix sum formed
/// in the same order replays those additions. A step that far ahead has
/// tanh exactly -1 and adds ±0.0, which can change only a sum of -0.0, so
/// those steps are skipped unless the sum is -0.0. Amplitudes and centres
/// must be finite (a non-finite amplitude makes even a skipped step's
/// term NaN).
class SmoothStepTrain final : public ContinuousSignal {
 public:
  struct Step {
    double center_s = 0.0;
    double amplitude = 1.0;  ///< level change (may be negative)
  };
  SmoothStepTrain(std::vector<Step> steps, double width_s,
                  double baseline = 0.0);

  double value(double t) const override;
  double bandwidth_hz() const override;

  /// |x| from which tanh(x) is exactly ±1: 1 - tanh(20) ≈ 8.5e-18 is below
  /// half an ulp of 1 (2^-54), so a correctly rounded tanh returns ±1 (glibc
  /// saturates from 19.06). signal_source_test asserts it for this libm.
  static constexpr double kSaturation = 20.0;

 private:
  std::vector<Step> steps_;      // sorted by centre
  std::vector<double> settled_;  // [j]: baseline plus steps [0, j) at tanh = 1
  double width_;
};

/// Weighted sum of other signals; bandwidth is the max of the parts.
class CompositeSignal final : public ContinuousSignal {
 public:
  void add(std::shared_ptr<const ContinuousSignal> part, double weight = 1.0);

  double value(double t) const override;
  double bandwidth_hz() const override;
  std::size_t parts() const { return parts_.size(); }

 private:
  std::vector<std::pair<std::shared_ptr<const ContinuousSignal>, double>> parts_;
};

/// A signal whose band limit changes at known switch times — the workload
/// for the adaptive sampler (Section 4.2): e.g. a calm metric that starts
/// flapping at t=T1 and calms again at t=T2.
class PiecewiseSignal final : public ContinuousSignal {
 public:
  /// Segment i is active on [switch_times[i-1], switch_times[i]) with
  /// switch_times[-1] = -inf and switch_times[n-1] = +inf.
  PiecewiseSignal(std::vector<std::shared_ptr<const ContinuousSignal>> segments,
                  std::vector<double> switch_times);

  double value(double t) const override;
  /// Overall band limit (max over segments).
  double bandwidth_hz() const override;

 private:
  std::vector<std::shared_ptr<const ContinuousSignal>> segments_;
  std::vector<double> switch_times_;
};

}  // namespace nyqmon::sig
