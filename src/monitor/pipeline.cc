#include "monitor/pipeline.h"

#include <cmath>
#include <limits>
#include <utility>

#include "dsp/quantize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reconstruct/error.h"
#include "reconstruct/lowpass_reconstructor.h"
#include "signal/preclean.h"
#include "util/check.h"

namespace nyqmon::mon {

AdaptiveMonitoringPipeline::AdaptiveMonitoringPipeline(PipelineConfig config)
    : config_(config) {}

PipelineResult AdaptiveMonitoringPipeline::run(
    const sig::ContinuousSignal& truth, double t0, double duration_s,
    double production_rate_hz, std::uint64_t noise_seed) const {
  // The batch path IS the streaming path driven to completion: constructing
  // the incremental pipeline and stepping every window produces bit-identical
  // results whether the windows run back-to-back here or interleaved with
  // hundreds of other pairs under the runtime's deadline scheduler.
  StreamingPairPipeline streaming(config_, truth, t0, duration_s,
                                  production_rate_hz, noise_seed);
  while (!streaming.done()) streaming.step_window();
  return streaming.finish();
}

StreamingPairPipeline::StreamingPairPipeline(const PipelineConfig& config,
                                             const sig::ContinuousSignal& truth,
                                             double t0, double duration_s,
                                             double production_rate_hz,
                                             std::uint64_t noise_seed)
    : config_(config),
      truth_(&truth),
      t0_(t0),
      duration_s_(duration_s),
      production_rate_hz_(production_rate_hz),
      dt_(1.0 / production_rate_hz),
      rng_(noise_seed),
      stepper_(config.sampler, t0, duration_s) {
  NYQMON_CHECK(duration_s > 0.0);
  NYQMON_CHECK(production_rate_hz > 0.0);

  // The measurement channel: ground truth + noise + quantization. Noise is
  // drawn from one per-pair stream in acquisition order, so batch and
  // streaming drives see the exact same readings.
  const double noise = config_.noise_stddev;
  const double quant = config_.quantization_step;
  measure_ = [this, noise, quant](double t) {
    double v = truth_->value(t);
    if (noise > 0.0) v += rng_.normal(0.0, noise);
    if (quant > 0.0) v = dsp::Quantizer(quant).apply(v);
    return v;
  };
}

void StreamingPairPipeline::upsample_window(const nyq::AdaptiveStep& step) {
  // Collect this window's primary samples. Windows earlier in the run can
  // spill past their nominal end (the 8-sample acquisition floor), so the
  // filter runs over everything collected so far — exactly the subsequence
  // the batch pipeline's post-hoc filter selects for this window, because
  // samples from *later* windows can never land before this window's end.
  const auto& collected = stepper_.run_so_far().collected;
  window_vals_.clear();  // reused across windows: capacity persists per pair
  const double win_end = step.window_start_s + config_.sampler.window_duration_s;
  for (const auto& s : collected.samples()) {
    if (s.t >= step.window_start_s - 1e-9 && s.t < win_end - 1e-9)
      window_vals_.push_back(s.v);
  }
  if (window_vals_.size() < 2) return;
  const sig::RegularSeries window_series(step.window_start_s,
                                         1.0 / step.rate_hz, window_vals_);
  const auto n_dense = static_cast<std::size_t>(std::max<double>(
      window_vals_.size(),
      std::ceil(window_series.duration() * 4.0 * production_rate_hz_)));
  const auto upsampled = rec::reconstruct(window_series, n_dense);
  for (std::size_t i = 0; i < upsampled.size(); ++i)
    dense_.push(upsampled.time_at(i), upsampled[i]);
}

std::size_t StreamingPairPipeline::emit_ready(double horizon_s) {
  if (dense_.size() < 2) return 0;

  // Latest dense sample strictly before the horizon: grid points at or
  // before it interpolate between samples no future window can perturb.
  double final_until = -std::numeric_limits<double>::infinity();
  const auto& samples = dense_.samples();
  for (std::size_t i = samples.size(); i-- > 0;) {
    if (samples[i].t < horizon_s && std::isfinite(samples[i].t) &&
        std::isfinite(samples[i].v)) {
      final_until = samples[i].t;
      break;
    }
  }
  // Skip the regularization below when even the next grid point cannot be
  // final yet (same time arithmetic as the emission loop).
  if (!recon_.empty() &&
      grid_t0_ + static_cast<double>(recon_.size()) * dt_ > final_until)
    return 0;

  // Regularize everything collected so far. Values in the final region —
  // where every raw sample, its duplicate-collapse and its interpolation
  // bracket can no longer be touched by future windows — already equal the
  // end-of-run regularization, so they can be emitted now. Re-running the
  // regularizer over the full prefix per emitting window (rather than once
  // at end-of-run like the pre-streaming batch code) is what keeps emitted
  // values bit-identical to that single pass by construction; with the
  // default window counts the cost is in the noise next to the per-window
  // FFT work (engine throughput measured unchanged across the refactor).
  sig::PrecleanConfig clean;
  clean.dt = dt_;
  clean.interp = sig::InterpKind::kLinear;
  const sig::RegularSeries partial = sig::regularize(dense_, clean);
  if (recon_.empty()) {
    grid_t0_ = partial.t0();
  } else {
    NYQMON_CHECK_MSG(partial.t0() == grid_t0_,
                     "reconstruction grid origin moved mid-stream");
  }

  const double quant = config_.quantization_step;
  const bool requant = quant > 0.0;
  const dsp::Quantizer quantizer(requant ? quant : 1.0);
  std::size_t emitted = 0;
  for (std::size_t i = recon_.size();
       i < partial.size() && partial.time_at(i) <= final_until; ++i) {
    recon_.push_back(requant ? quantizer.apply(partial[i]) : partial[i]);
    ++emitted;
  }
  return emitted;
}

std::size_t StreamingPairPipeline::step_window() {
  NYQMON_CHECK_MSG(!done(), "step_window() past the end of the run");
  NYQMON_TRACE_SPAN("window", "engine");
  // Stage timings for the per-pair hot loop. The one-shot pipeline
  // delegates here too, so these histograms cover both execution modes.
  // Two slices inside the sample stage have their own histograms: the
  // measurement loops (acquire, nyquist/adaptive_sampler.cc) and the
  // FFT/PSD (nyquist/estimator.cc).
  const nyq::AdaptiveStep* step = nullptr;
  {
    NYQMON_OBS_TIMER("nyqmon_engine_stage_sample_ns");
    step = &stepper_.step_window(measure_);
  }
  NYQMON_OBS_TIMER("nyqmon_engine_stage_reconstruct_ns");
  upsample_window(*step);
  // Every future dense sample lands at or after the next window's start
  // (the last window finalizes everything).
  const double horizon = stepper_.done()
                             ? std::numeric_limits<double>::infinity()
                             : stepper_.window_start_s();
  return emit_ready(horizon);
}

PipelineResult StreamingPairPipeline::finish() {
  NYQMON_CHECK_MSG(done(), "finish() before the run is complete");
  NYQMON_CHECK_MSG(!finished_, "finish() is single-shot");
  finished_ = true;

  PipelineResult out;
  out.run = stepper_.finish();

  out.adaptive_cost = cost_of_samples(out.run.total_samples, config_.cost);
  const std::size_t baseline_n = out.run.baseline_samples(production_rate_hz_);
  out.baseline_cost = cost_of_samples(baseline_n, config_.cost);
  out.cost_savings =
      out.run.total_samples == 0
          ? 0.0
          : static_cast<double>(baseline_n) /
                static_cast<double>(out.run.total_samples);

  if (dense_.size() < 2) {
    // Degenerate run (no window yielded two primary samples): fall back to
    // regularizing the raw collected trace, as the batch pipeline does.
    NYQMON_CHECK(recon_.empty());
    dense_ = out.run.collected;
    sig::PrecleanConfig clean;
    clean.dt = dt_;
    clean.interp = sig::InterpKind::kLinear;
    sig::RegularSeries fallback = sig::regularize(dense_, clean);
    const double quant = config_.quantization_step;
    if (quant > 0.0) {
      const dsp::Quantizer q(quant);
      for (auto& v : fallback.mutable_values()) v = q.apply(v);
    }
    grid_t0_ = fallback.t0();
    recon_ = std::move(fallback.mutable_values());
  } else {
    emit_ready(std::numeric_limits<double>::infinity());
  }

  sig::RegularSeries recon(grid_t0_, dt_, recon_);
  {
    // The audit stage: score the reconstruction against the dense ground
    // truth, once per pair.
    NYQMON_OBS_TIMER("nyqmon_engine_stage_audit_ns");
    out.ground_truth = truth_->sample(recon.t0(), dt_, recon.size());
    out.l2 = rec::l2_distance(out.ground_truth.span(), recon.span());
    out.nrmse = rec::nrmse(out.ground_truth.span(), recon.span());
    out.max_abs_error =
        rec::max_abs_error(out.ground_truth.span(), recon.span());
  }
  out.reconstruction = std::move(recon);
  return out;
}

}  // namespace nyqmon::mon
