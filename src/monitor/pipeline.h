// The end-to-end adaptive monitoring pipeline (paper Section 4).
//
// Wires together the pieces into the system the paper proposes: an
// AdaptiveSampler measures a live (noisy, quantized) signal at a
// self-chosen rate; the collected samples are reconstructed onto the
// original production grid; the result is scored for cost (vs the
// fixed-rate production poller) and quality (vs dense ground truth).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "monitor/cost_model.h"
#include "nyquist/adaptive_sampler.h"
#include "signal/source.h"
#include "util/rng.h"

namespace nyqmon::mon {

struct PipelineConfig {
  nyq::AdaptiveConfig sampler;
  CostModel cost;
  /// Measurement imperfections applied to every acquisition. A positive
  /// quantization step is re-applied to the reconstruction too
  /// (Section 4.3).
  double noise_stddev = 0.0;
  double quantization_step = 0.0;
};

struct PipelineResult {
  nyq::AdaptiveRun run;
  Cost adaptive_cost;
  Cost baseline_cost;        ///< fixed production-rate poller over same span
  double cost_savings = 0.0; ///< baseline samples / adaptive samples
  /// Reconstruction quality against the ground-truth signal evaluated on
  /// the production grid.
  double l2 = 0.0;
  double nrmse = 0.0;
  double max_abs_error = 0.0;
  sig::RegularSeries reconstruction;  ///< on the production grid
  sig::RegularSeries ground_truth;    ///< same grid, noiseless
};

class AdaptiveMonitoringPipeline {
 public:
  explicit AdaptiveMonitoringPipeline(PipelineConfig config = {});

  const PipelineConfig& config() const { return config_; }

  /// Monitor `truth` over [t0, t0+duration); `production_rate_hz` is the
  /// rate the existing deployment uses (baseline cost and evaluation grid).
  PipelineResult run(const sig::ContinuousSignal& truth, double t0,
                     double duration_s, double production_rate_hz,
                     std::uint64_t noise_seed = 1) const;

 private:
  PipelineConfig config_;
};

/// Incremental form of the pipeline for the streaming runtime: one
/// step_window() call drives the adaptive sampler through exactly one
/// adaptation window and then extends the reconstruction with every
/// production-grid point that became *final* — a grid point is emitted only
/// once its interpolation bracket can no longer change, so the concatenated
/// emissions are bit-identical to the batch reconstruction. The batch
/// AdaptiveMonitoringPipeline::run() is implemented as "construct, step
/// until done, finish", which is what makes a virtual-clock streaming run
/// reproduce batch results bit-exactly.
///
/// Lifecycle per pair: construct → { step_window(); ingest the new slice of
/// reconstruction_so_far() } until done() → finish() for the exact batch
/// PipelineResult (costs, run log, error metrics, full reconstruction).
class StreamingPairPipeline {
 public:
  /// Monitor `truth` over [t0, t0+duration); `truth` must outlive this.
  StreamingPairPipeline(const PipelineConfig& config,
                        const sig::ContinuousSignal& truth, double t0,
                        double duration_s, double production_rate_hz,
                        std::uint64_t noise_seed = 1);

  // measure_ captures `this` (it draws from this object's rng_): a copied
  // or moved pipeline would keep sampling through the original.
  StreamingPairPipeline(const StreamingPairPipeline&) = delete;
  StreamingPairPipeline& operator=(const StreamingPairPipeline&) = delete;

  bool done() const { return stepper_.done(); }

  /// Time at which the next window's data is complete — the deadline a
  /// scheduler should wake this pair at. Meaningless once done().
  double next_deadline_s() const { return stepper_.window_end_s(); }

  /// The sampler's current operating rate (re-planned every window).
  double current_rate_hz() const { return stepper_.current_rate_hz(); }

  /// Acquire and adapt one window; returns how many new reconstruction
  /// values were finalized (possibly 0 while the grid awaits the next
  /// window). Must not be called once done().
  std::size_t step_window();

  /// Every finalized reconstruction value so far, on the production grid
  /// (finish() reports its origin as `reconstruction.t0()`). Grows at the
  /// tail only; a caller that ingested the first k values need only append
  /// the rest.
  std::span<const double> reconstruction_so_far() const { return recon_; }

  /// The adaptive run so far (steps/collected grow per window).
  const nyq::AdaptiveRun& run_so_far() const { return stepper_.run_so_far(); }

  /// Finalize; requires done(). The returned result is bit-identical to
  /// AdaptiveMonitoringPipeline::run() with the same arguments.
  PipelineResult finish();

 private:
  /// Append this step's per-window dense reconstruction to dense_.
  void upsample_window(const nyq::AdaptiveStep& step);
  /// Emit grid points whose brackets are final given that every future
  /// dense sample lands at or after `horizon_s`.
  std::size_t emit_ready(double horizon_s);

  PipelineConfig config_;
  const sig::ContinuousSignal* truth_;
  double t0_ = 0.0;
  double duration_s_ = 0.0;
  double production_rate_hz_ = 0.0;
  double dt_ = 0.0;
  Rng rng_;
  std::function<double(double)> measure_;
  nyq::AdaptiveStepper stepper_;
  sig::TimeSeries dense_;          ///< stitched per-window dense streams
  std::vector<double> window_vals_;  ///< per-window sample buffer, reused
  std::vector<double> recon_;      ///< finalized production-grid values
  double grid_t0_ = 0.0;           ///< set on first emission
  bool finished_ = false;
};

}  // namespace nyqmon::mon
