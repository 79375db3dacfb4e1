#include "monitor/audit.h"

#include <cmath>

#include "signal/preclean.h"
#include "util/parallel.h"

namespace nyqmon::mon {

double MetricAudit::fraction_oversampled() const {
  return pairs == 0 ? 0.0
                    : static_cast<double>(oversampled) /
                          static_cast<double>(pairs);
}

double AuditResult::fraction_oversampled() const {
  if (pairs.empty()) return 0.0;
  std::size_t n = 0;
  for (const auto& p : pairs)
    if (p.sampling_class == nyq::SamplingClass::kOversampled) ++n;
  return static_cast<double>(n) / static_cast<double>(pairs.size());
}

double AuditResult::fraction_undersampled() const {
  if (pairs.empty()) return 0.0;
  std::size_t n = 0;
  for (const auto& p : pairs)
    if (p.sampling_class == nyq::SamplingClass::kUndersampled) ++n;
  return static_cast<double>(n) / static_cast<double>(pairs.size());
}

Cost AuditResult::current_cost(double duration_s, const CostModel& model) const {
  Cost total;
  for (const auto& p : pairs) {
    total += cost_of_samples(
        static_cast<std::size_t>(std::floor(duration_s * p.poll_rate_hz)),
        model);
  }
  return total;
}

Cost AuditResult::nyquist_cost(double duration_s, const CostModel& model) const {
  Cost total;
  for (const auto& p : pairs) {
    // Pairs without a usable estimate keep their current rate (the paper
    // defers them to "more careful inspection"); under-sampled pairs would
    // *raise* their rate to the estimate.
    double rate = p.poll_rate_hz;
    if (p.estimate.ok()) rate = p.estimate.nyquist_rate_hz;
    total += cost_of_samples(
        static_cast<std::size_t>(std::floor(duration_s * rate)), model);
  }
  return total;
}

namespace {

// The per-pair work: poll, pre-clean, estimate, classify. Pure function of
// (pair, its pre-forked rng) — safe to run on any thread.
AuditPairResult audit_one(const tel::FleetPair& pair, Rng rng,
                          const AuditConfig& config,
                          const nyq::NyquistEstimator& estimator) {
  const auto& m = pair.metric;
  const auto& spec = tel::metric_spec(m.kind);

  tel::PollerConfig pc;
  pc.interval_s = m.poll_interval_s;
  pc.jitter_frac = config.jitter_frac;
  pc.drop_prob = config.drop_prob;
  pc.noise_stddev = config.relative_noise * spec.fluctuation_rms;
  pc.quantization_step = m.quantization_step;

  const sig::TimeSeries raw =
      tel::poll(*m.signal, 0.0, m.trace_duration_s, pc, rng);

  sig::PrecleanConfig clean;
  clean.dt = m.poll_interval_s;  // analyse on the nominal grid
  clean.interp = sig::InterpKind::kNearest;
  const sig::RegularSeries trace = sig::regularize(raw, clean);

  AuditPairResult pr;
  pr.kind = m.kind;
  pr.device_name = pair.device.name();
  pr.poll_rate_hz = 1.0 / m.poll_interval_s;
  pr.true_bandwidth_hz = m.true_bandwidth_hz;
  pr.estimate = estimator.estimate(trace);
  pr.sampling_class = nyq::classify_sampling(pr.estimate);
  pr.reduction_ratio = nyq::reduction_ratio(pr.estimate);
  return pr;
}

}  // namespace

AuditResult run_audit(const tel::Fleet& fleet, const AuditConfig& config) {
  const nyq::NyquistEstimator estimator(config.estimator);

  // Fork every pair's random stream sequentially so the outcome does not
  // depend on scheduling, then fan the (independent) per-pair work out.
  Rng rng(config.seed);
  std::vector<Rng> streams;
  streams.reserve(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) streams.push_back(rng.fork());

  AuditResult result;
  result.pairs.resize(fleet.size());
  parallel_claim(fleet.size(), config.threads, [&](std::size_t i) {
    result.pairs[i] =
        audit_one(fleet.pairs()[i], streams[i], config, estimator);
  });

  // Aggregate (order-stable: iterate results in pair order).
  for (const auto& pr : result.pairs) {
    auto& agg = result.by_metric[pr.kind];
    agg.kind = pr.kind;
    ++agg.pairs;
    switch (pr.sampling_class) {
      case nyq::SamplingClass::kOversampled: ++agg.oversampled; break;
      case nyq::SamplingClass::kUndersampled: ++agg.undersampled; break;
      case nyq::SamplingClass::kAtRate: ++agg.at_rate; break;
      case nyq::SamplingClass::kUnknown: ++agg.unknown; break;
    }
    if (pr.reduction_ratio) agg.reduction_ratios.push_back(*pr.reduction_ratio);
    if (pr.estimate.ok())
      agg.nyquist_rates_hz.push_back(pr.estimate.nyquist_rate_hz);
  }
  return result;
}

}  // namespace nyqmon::mon
