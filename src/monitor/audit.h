// Fleet audit — the paper's Section 3.2 study as a reusable harness.
//
// For every metric-device pair in a fleet the audit:
//   1. polls the pair's ground-truth signal at the production interval,
//      with jitter, dropped polls, measurement noise and quantization;
//   2. pre-cleans the trace onto a uniform grid (nearest-neighbour
//      re-sampling, as in the paper);
//   3. runs the NyquistEstimator and classifies the pair as over-sampled /
//      under-sampled / at-rate / unknown;
//   4. records the possible reduction ratio (current rate / Nyquist rate).
//
// The result feeds Figure 1 (fraction of devices above the Nyquist rate per
// metric), Figure 4 (per-metric reduction-ratio CDFs), Figure 5 (per-metric
// Nyquist-rate box plots) and the Section 3.2 headline numbers.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "monitor/cost_model.h"
#include "nyquist/estimator.h"
#include "nyquist/reduction.h"
#include "telemetry/fleet.h"
#include "telemetry/poller.h"

namespace nyqmon::mon {

struct AuditConfig {
  /// Poller imperfections layered on top of each metric's own interval and
  /// quantization step.
  double jitter_frac = 0.05;
  double drop_prob = 0.005;
  /// Measurement noise as a fraction of the metric's fluctuation scale.
  double relative_noise = 0.01;
  nyq::EstimatorConfig estimator = [] {
    nyq::EstimatorConfig cfg;
    // Paper-faithful: the FFT is taken over the raw trace, DC included
    // ("compute the FFT and the total energy"). For quiet devices the DC
    // bin alone covers the 99% budget and the estimate collapses to the
    // resolution floor 2/T -- which is precisely how the paper's minimum
    // temperature Nyquist rate of 7.99e-7 Hz arises from a ~29-day trace.
    cfg.detrend = nyq::DetrendMode::kNone;
    return cfg;
  }();
  std::uint64_t seed = 7;
  /// Worker threads for the per-pair work (0 = hardware concurrency).
  /// Results are bit-identical regardless of thread count: every pair's
  /// random stream is forked from the seed sequentially before the fan-out.
  std::size_t threads = 0;
};

/// Outcome for one metric-device pair.
struct AuditPairResult {
  tel::MetricKind kind;
  std::string device_name;
  double poll_rate_hz = 0.0;
  double true_bandwidth_hz = 0.0;  ///< ground truth (unknowable in prod)
  nyq::NyquistEstimate estimate;
  nyq::SamplingClass sampling_class = nyq::SamplingClass::kUnknown;
  std::optional<double> reduction_ratio;
};

/// Aggregates per metric.
struct MetricAudit {
  tel::MetricKind kind;
  std::size_t pairs = 0;
  std::size_t oversampled = 0;
  std::size_t undersampled = 0;
  std::size_t at_rate = 0;
  std::size_t unknown = 0;
  std::vector<double> reduction_ratios;  ///< only Ok estimates
  std::vector<double> nyquist_rates_hz;  ///< only Ok estimates

  double fraction_oversampled() const;
};

struct AuditResult {
  std::vector<AuditPairResult> pairs;
  std::map<tel::MetricKind, MetricAudit> by_metric;

  std::size_t total_pairs() const { return pairs.size(); }
  double fraction_oversampled() const;
  double fraction_undersampled() const;
  /// Current vs Nyquist-rate storage bill across the fleet.
  Cost current_cost(double duration_s, const CostModel& model = {}) const;
  Cost nyquist_cost(double duration_s, const CostModel& model = {}) const;
};

/// Run the audit over a fleet.
AuditResult run_audit(const tel::Fleet& fleet, const AuditConfig& config = {});

}  // namespace nyqmon::mon
