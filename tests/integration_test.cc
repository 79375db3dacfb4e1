// End-to-end integration: the full paper pipeline on compact workloads —
// poll -> preclean -> estimate -> downsample -> reconstruct -> verify, the
// Figure 3 two-tone experiment, and failure injection through the whole
// stack.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "dsp/psd.h"
#include "monitor/audit.h"
#include "nyquist/adaptive_sampler.h"
#include "nyquist/estimator.h"
#include "reconstruct/error.h"
#include "reconstruct/lowpass_reconstructor.h"
#include "signal/generators.h"
#include "signal/preclean.h"
#include "telemetry/fleet.h"
#include "telemetry/poller.h"
#include "util/rng.h"

namespace {

using namespace nyqmon;

TEST(Integration, PollEstimateDownsampleReconstruct) {
  // The full offline loop on one "device": a band-limited utilization
  // signal polled every 30 s with jitter/noise/quantization; the estimator
  // finds a rate far below the poll rate; re-sampling at that rate and
  // reconstructing matches the original within noise.
  Rng rng(61);
  const auto signal = sig::make_bandlimited_process(
      /*bw=*/1e-3, /*rms=*/10.0, 32, rng, /*dc=*/40.0);

  tel::PollerConfig pc;
  pc.interval_s = 30.0;
  pc.jitter_frac = 0.05;
  pc.drop_prob = 0.01;
  pc.noise_stddev = 0.1;
  pc.quantization_step = 1.0;
  const auto raw = tel::poll(*signal, 0.0, 86400.0, pc, rng);

  sig::PrecleanConfig clean;
  clean.dt = 30.0;
  const auto trace = sig::regularize(raw, clean);

  const auto est = nyq::NyquistEstimator().estimate(trace);
  ASSERT_EQ(est.verdict, nyq::NyquistEstimate::Verdict::kOk);
  EXPECT_GT(est.reduction_ratio(), 5.0);
  EXPECT_LE(est.nyquist_rate_hz, 2.5e-3);

  // Downsample to (headroom * estimated Nyquist) and reconstruct. The
  // residual combines the 1% of energy above the 99% cutoff with the
  // quantization/measurement noise in the removed band.
  const double target_rate = 1.5 * est.nyquist_rate_hz;
  const auto factor = static_cast<std::size_t>(
      std::max(1.0, std::floor(trace.sample_rate_hz() / target_rate)));
  const auto recon = rec::round_trip(trace, factor);
  EXPECT_LT(rec::nrmse(trace.span(), recon.span()), 0.08);
}

TEST(Integration, Figure3TwoToneExperiment) {
  // The paper's Figure 3: 400 + 440 Hz tones. Sampled at 890 Hz (above
  // Nyquist 880) both tones are resolvable and reconstruction works;
  // at 800 or 600 Hz aliasing corrupts the spectrum and the
  // reconstruction.
  const std::vector<sig::Tone> tones{{400.0, 1.0, 0.0}, {440.0, 1.0, 0.0}};
  const sig::SumOfSines signal(tones);
  const double duration = 2.0;

  auto sample_at = [&](double fs) {
    const auto n = static_cast<std::size_t>(duration * fs);
    return signal.sample(0.0, 1.0 / fs, n);
  };
  auto spectral_peak_hz = [](const sig::RegularSeries& s) {
    const auto psd = dsp::periodogram(s.span(), s.sample_rate_hz());
    std::size_t peak = 1;
    for (std::size_t k = 1; k < psd.bins(); ++k)
      if (psd.power[k] > psd.power[peak]) peak = k;
    return psd.frequency_hz[peak];
  };

  // Above Nyquist: spectrum peaks at 400/440 and dense reconstruction
  // matches the analytic signal.
  const auto above = sample_at(890.0);
  const double peak_above = spectral_peak_hz(above);
  EXPECT_TRUE(std::abs(peak_above - 400.0) < 2.0 ||
              std::abs(peak_above - 440.0) < 2.0);

  const auto recon = rec::reconstruct(above, above.size() * 4);
  const auto truth = signal.sample(recon.t0(), recon.dt(), recon.size());
  double interior_err = 0.0;
  for (std::size_t i = recon.size() / 8; i < recon.size() * 7 / 8; ++i)
    interior_err = std::max(interior_err, std::abs(recon[i] - truth[i]));
  EXPECT_LT(interior_err, 0.15);

  // Below Nyquist: the 440 Hz tone folds (800-440=360, 600-440=160 etc.);
  // the strongest spectral line sits away from the true tones.
  for (double fs : {800.0, 600.0}) {
    const auto aliased = sample_at(fs);
    const double peak = spectral_peak_hz(aliased);
    const bool truthful = std::abs(peak - 400.0) < 2.0 &&
                          std::abs(peak - 440.0) < 2.0;
    EXPECT_FALSE(truthful) << "fs=" << fs << " peak=" << peak;
    // Reconstruction error is large.
    const auto bad = rec::reconstruct(aliased, truth.size());
    EXPECT_GT(rec::nrmse(truth.span(), bad.span()), 0.2) << "fs=" << fs;
  }
}

TEST(Integration, AdaptiveSamplerOnTelemetryMetric) {
  // Drive the adaptive sampler with a real telemetry metric instance
  // (temperature) including quantized readings.
  Rng rng(62);
  const auto inst =
      tel::make_metric_instance(tel::MetricKind::kTemperature, 7 * 86400.0, rng);
  const dsp::Quantizer quant(inst.quantization_step);
  auto noise = std::make_shared<Rng>(rng.fork());
  auto measure = [&inst, &quant, noise](double t) {
    return quant.apply(inst.signal->value(t) + noise->normal(0.0, 0.02));
  };

  nyq::AdaptiveConfig cfg;
  cfg.initial_rate_hz = 1.0 / 300.0;  // the production 5-min default
  cfg.min_rate_hz = 1.0 / 7200.0;
  cfg.max_rate_hz = 1.0 / 30.0;
  cfg.window_duration_s = 86400.0;
  const auto run = nyq::AdaptiveSampler(cfg).run(measure, 0.0, 7 * 86400.0);

  ASSERT_EQ(run.steps.size(), 7u);
  // The sampler must not blow past the metric's true requirement by more
  // than the probe dynamics allow, and must end within the configured band.
  EXPECT_GE(run.final_rate_hz, cfg.min_rate_hz);
  EXPECT_LE(run.final_rate_hz, cfg.max_rate_hz);
}

TEST(Integration, PrecleanSurvivesHostileTrace) {
  // Failure injection end-to-end: NaNs, duplicate timestamps, out-of-order
  // arrivals, a large gap — the pipeline still produces an estimate.
  Rng rng(63);
  const sig::SumOfSines tone({{0.001, 5.0, 0.0}}, 50.0);
  sig::TimeSeries hostile;
  for (int i = 0; i < 2000; ++i) {
    const double t = i * 10.0;
    if (i % 97 == 0) {
      hostile.push(t, std::numeric_limits<double>::quiet_NaN());
      continue;
    }
    if (i % 101 == 0) hostile.push(t, tone.value(t));  // duplicate below
    if (i > 1000 && i < 1100) continue;                // 1000 s blackout
    hostile.push(t, tone.value(t));
  }
  // Out-of-order late arrival.
  hostile.push(5.0, tone.value(5.0));

  sig::PrecleanConfig clean;
  clean.dt = 10.0;
  sig::PrecleanReport report;
  const auto trace = sig::regularize(hostile, clean, &report);
  EXPECT_GT(report.dropped_nonfinite, 0u);
  EXPECT_GT(report.collapsed_duplicates, 0u);
  EXPECT_GT(report.filled_in_long_gaps, 0u);

  const auto est = nyq::NyquistEstimator().estimate(trace);
  ASSERT_EQ(est.verdict, nyq::NyquistEstimate::Verdict::kOk);
  EXPECT_NEAR(est.nyquist_rate_hz, 0.002, 0.001);
}

TEST(Integration, AuditHeadlineShapeOnMediumFleet) {
  // A 400-pair fleet reproduces the Section 3.2 shape: most pairs
  // over-sampled, a minority under-sampled, some pairs reducible by large
  // factors.
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 400;
  fleet_cfg.seed = 20210527;
  const tel::Fleet fleet(fleet_cfg);
  const auto audit = mon::run_audit(fleet, mon::AuditConfig{});

  EXPECT_GT(audit.fraction_oversampled(), 0.7);
  EXPECT_LT(audit.fraction_undersampled(), 0.3);
  // Over 20% of the pairs with an estimate could poll 10x less often.
  std::size_t estimated = 0;
  std::size_t reducible = 0;
  for (const auto& p : audit.pairs) {
    if (!p.reduction_ratio) continue;
    ++estimated;
    if (*p.reduction_ratio >= 10.0) ++reducible;
  }
  EXPECT_GT(static_cast<double>(reducible),
            0.2 * static_cast<double>(estimated));
  // Every metric present and aggregated.
  EXPECT_EQ(audit.by_metric.size(), tel::kMetricCount);
}

}  // namespace
