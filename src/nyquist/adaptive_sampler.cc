#include "nyquist/adaptive_sampler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace nyqmon::nyq {

std::size_t AdaptiveRun::baseline_samples(double baseline_rate_hz) const {
  NYQMON_CHECK(baseline_rate_hz > 0.0);
  return static_cast<std::size_t>(std::floor(duration_s * baseline_rate_hz));
}

AdaptiveSampler::AdaptiveSampler(AdaptiveConfig config) : config_(config) {
  NYQMON_CHECK(config_.initial_rate_hz > 0.0);
  NYQMON_CHECK(config_.min_rate_hz > 0.0);
  NYQMON_CHECK(config_.min_rate_hz <= config_.max_rate_hz);
  NYQMON_CHECK(config_.probe_factor > 1.0);
  NYQMON_CHECK(config_.headroom >= 1.0);
  NYQMON_CHECK(config_.max_decrease_factor > 1.0);
  NYQMON_CHECK(config_.window_duration_s > 0.0);
}

AdaptiveRun AdaptiveSampler::run(const std::function<double(double)>& measure,
                                 double t0, double duration_s) const {
  AdaptiveStepper stepper(config_, t0, duration_s);
  while (!stepper.done()) stepper.step_window(measure);
  return stepper.finish();
}

AdaptiveStepper::AdaptiveStepper(const AdaptiveConfig& config, double t0,
                                 double duration_s)
    : config_(config),
      detector_(config.detector),
      estimator_(config.estimator),
      t0_(t0),
      duration_s_(duration_s),
      t_(t0),
      mode_(SamplerMode::kProbe) {  // start conservative: verify first
  NYQMON_CHECK(duration_s > 0.0);
  NYQMON_CHECK(config_.initial_rate_hz > 0.0);
  NYQMON_CHECK(config_.min_rate_hz > 0.0);
  NYQMON_CHECK(config_.min_rate_hz <= config_.max_rate_hz);
  NYQMON_CHECK(config_.probe_factor > 1.0);
  NYQMON_CHECK(config_.headroom >= 1.0);
  NYQMON_CHECK(config_.max_decrease_factor > 1.0);
  NYQMON_CHECK(config_.window_duration_s > 0.0);
  // After the bound checks: clamp with lo > hi is undefined behavior.
  rate_ = std::clamp(config_.initial_rate_hz, config_.min_rate_hz,
                     config_.max_rate_hz);
  run_.duration_s = duration_s;
}

double AdaptiveStepper::window_end_s() const {
  const double win =
      std::min(config_.window_duration_s, t0_ + duration_s_ - t_);
  return t_ + win;
}

const AdaptiveStep& AdaptiveStepper::step_window(
    const std::function<double(double)>& measure) {
  NYQMON_CHECK(measure != nullptr);
  NYQMON_CHECK_MSG(!done(), "step_window() past the end of the run");

  const double t = t_;
  const double win = std::min(config_.window_duration_s, t0_ + duration_s_ - t);
  const double rate = rate_;

  AdaptiveStep step;
  step.window_start_s = t;
  step.mode = mode_;
  step.rate_hz = rate;

  // While probing (and periodically while tracking — "leverage temporal
  // stability to make adaptation less expensive"), acquire a faster
  // checker stream and run the Penny comparison (fast = ratio * rate vs
  // primary = rate) on the common band [0, rate/2): a discrepancy there
  // means the signal carries energy the primary stream folds — the
  // *operating rate* is insufficient. This is the configuration whose
  // cost is "roughly double" the primary's, as the paper notes.
  const bool check_this_window =
      mode_ == SamplerMode::kProbe ||
      windows_since_check_ + 1 >= config_.recheck_interval_windows;

  // Acquire the primary stream at `rate`, then the checker stream when it
  // is due. Both loops run under one timer: the measurement closure's
  // cost (ground truth, noise, quantizer), apart from the detection and
  // estimation below.
  const std::size_t n_primary = std::max<std::size_t>(
      8, static_cast<std::size_t>(std::floor(win * rate)));
  const double dt = 1.0 / rate;
  std::vector<double> primary(n_primary);
  const double fast_rate = rate * config_.detector.rate_ratio;
  const double dtf = 1.0 / fast_rate;
  std::vector<double> fast;
  {
    NYQMON_OBS_TIMER("nyqmon_engine_stage_acquire_ns");
    for (std::size_t i = 0; i < n_primary; ++i) {
      const double ts = t + static_cast<double>(i) * dt;
      primary[i] = measure(ts);
      run_.collected.push(ts, primary[i]);
    }
    if (check_this_window) {
      fast.resize(std::max<std::size_t>(
          8, static_cast<std::size_t>(std::floor(win * fast_rate))));
      for (std::size_t i = 0; i < fast.size(); ++i)
        fast[i] = measure(t + static_cast<double>(i) * dtf);
    }
  }
  const sig::RegularSeries primary_series(t, dt, primary);

  DetectionResult det;
  step.samples_acquired = n_primary;
  if (check_this_window) {
    windows_since_check_ = 0;
    const sig::RegularSeries fast_series(t, dtf, fast);
    det = detector_.detect(fast_series, primary_series);
    step.samples_acquired += fast.size();
    // Estimate the Nyquist rate from the checker stream — the widest
    // clean band available this window (Section 3.2's method).
    step.estimate = estimator_.estimate(fast_series);
  } else {
    ++windows_since_check_;
    step.estimate = estimator_.estimate(primary_series);
  }
  step.aliasing_detected = det.aliasing_detected;
  run_.total_samples += step.samples_acquired;

  const bool fast_aliased =
      step.estimate.verdict == NyquistEstimate::Verdict::kAliased;

  // --- Rate adaptation ----------------------------------------------
  double next = rate;
  if (det.aliasing_detected || fast_aliased) {
    // The operating rate folds signal energy (or even the checker stream
    // is aliased): probe upward multiplicatively; with rate memory, jump
    // straight to the highest rate that was ever needed.
    next = rate * config_.probe_factor;
    if (config_.use_rate_memory && remembered_max_ > next)
      next = remembered_max_;
    mode_ = SamplerMode::kProbe;
  } else {
    // Clean window: settle toward headroom * estimated Nyquist rate.
    mode_ = SamplerMode::kTrack;
    remembered_max_ = std::max(remembered_max_, rate);
    if (step.estimate.ok()) {
      const double target = config_.headroom * step.estimate.nyquist_rate_hz;
      if (target < rate) {
        next = std::max(target, rate / config_.max_decrease_factor);
      } else {
        next = target;
      }
    } else if (step.estimate.verdict == NyquistEstimate::Verdict::kFlat) {
      next = rate / config_.max_decrease_factor;  // calm signal: back off
    }
  }
  next = std::clamp(next, config_.min_rate_hz, config_.max_rate_hz);
  step.next_rate_hz = next;
  run_.steps.push_back(step);
  rate_ = next;
  t_ += config_.window_duration_s;
  return run_.steps.back();
}

AdaptiveRun AdaptiveStepper::finish() {
  NYQMON_CHECK_MSG(done(), "finish() before the run is complete");
  run_.final_rate_hz = rate_;
  return std::move(run_);
}

RunAudit audit_run(const AdaptiveRun& run) {
  RunAudit audit;
  audit.windows = run.steps.size();
  audit.final_rate_hz = run.final_rate_hz;
  for (const auto& step : run.steps) {
    if (step.aliasing_detected) ++audit.aliased_windows;
    if (step.mode == SamplerMode::kProbe) ++audit.probe_windows;
    audit.max_rate_hz = std::max(audit.max_rate_hz, step.rate_hz);
  }
  return audit;
}

}  // namespace nyqmon::nyq
