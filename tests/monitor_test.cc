// Monitor layer: cost model arithmetic, the fleet audit plumbing on a
// small fleet, and the adaptive monitoring pipeline's cost/quality
// outputs.
#include <gtest/gtest.h>

#include <memory>

#include "monitor/audit.h"
#include "monitor/cost_model.h"
#include "monitor/pipeline.h"
#include "signal/generators.h"

namespace {

using namespace nyqmon;
using mon::AuditConfig;
using mon::AuditResult;
using mon::Cost;
using mon::cost_of_samples;
using mon::CostModel;
using mon::PipelineConfig;
using mon::run_audit;

TEST(CostModel, LinearInSamples) {
  const CostModel model;
  const Cost c1 = cost_of_samples(100, model);
  const Cost c2 = cost_of_samples(200, model);
  EXPECT_EQ(c1.samples, 100u);
  EXPECT_DOUBLE_EQ(c2.transmission_bytes, 2.0 * c1.transmission_bytes);
  EXPECT_DOUBLE_EQ(c2.storage_bytes, 2.0 * c1.storage_bytes);
  EXPECT_DOUBLE_EQ(c2.collection_cpu_s, 2.0 * c1.collection_cpu_s);
}

TEST(CostModel, ZeroSamplesZeroCost) {
  const Cost c = cost_of_samples(0);
  EXPECT_EQ(c.samples, 0u);
  EXPECT_DOUBLE_EQ(c.storage_bytes, 0.0);
}

TEST(CostModel, AccumulateAdds) {
  Cost total;
  total += cost_of_samples(10);
  total += cost_of_samples(20);
  EXPECT_EQ(total.samples, 30u);
  EXPECT_DOUBLE_EQ(total.storage_bytes, cost_of_samples(30).storage_bytes);
}

TEST(CostModel, ToStringMentionsSamples) {
  const auto text = to_string(cost_of_samples(1234));
  EXPECT_NE(text.find("1234"), std::string::npos);
}

class SmallAudit : public ::testing::Test {
 protected:
  static const AuditResult& result() {
    static const AuditResult r = [] {
      tel::FleetConfig fleet_cfg;
      fleet_cfg.target_pairs = 120;
      fleet_cfg.seed = 7;
      fleet_cfg.topology.pods = 2;
      const tel::Fleet fleet(fleet_cfg);
      return run_audit(fleet, AuditConfig{});
    }();
    return r;
  }
};

TEST_F(SmallAudit, EveryPairGetsAVerdict) {
  EXPECT_EQ(result().total_pairs(), 120u);
  for (const auto& p : result().pairs) {
    EXPECT_FALSE(p.device_name.empty());
    EXPECT_GT(p.poll_rate_hz, 0.0);
  }
}

TEST_F(SmallAudit, MajorityOversampled) {
  // The paper's central observation: most pairs are over-sampled. The
  // synthetic fleet is tuned to land near 89%/11%, but on a 120-pair
  // subsample we only require the qualitative shape.
  EXPECT_GT(result().fraction_oversampled(), 0.6);
  EXPECT_LT(result().fraction_undersampled(), 0.35);
}

TEST_F(SmallAudit, ReductionRatiosSpanDecades) {
  double max_ratio = 0.0;
  for (const auto& p : result().pairs)
    if (p.reduction_ratio) max_ratio = std::max(max_ratio, *p.reduction_ratio);
  EXPECT_GT(max_ratio, 50.0);
}

TEST_F(SmallAudit, PerMetricAggregatesConsistent) {
  std::size_t total = 0;
  for (const auto& [kind, agg] : result().by_metric) {
    EXPECT_EQ(agg.pairs,
              agg.oversampled + agg.undersampled + agg.at_rate + agg.unknown);
    total += agg.pairs;
  }
  EXPECT_EQ(total, result().total_pairs());
}

TEST_F(SmallAudit, NyquistCostBelowCurrentCost) {
  const double day = 86400.0;
  const auto current = result().current_cost(day);
  const auto nyquist = result().nyquist_cost(day);
  EXPECT_LT(nyquist.storage_bytes, current.storage_bytes / 2.0);
}

TEST_F(SmallAudit, EstimatesUsuallyTrackTrueBandwidth) {
  // For Ok estimates on smooth metrics the estimated Nyquist rate should
  // be within [true/30, 3*true] most of the time (the 99% rule sits below
  // the hard band edge on red spectra).
  std::size_t ok = 0, close = 0;
  for (const auto& p : result().pairs) {
    if (!p.estimate.ok()) continue;
    ++ok;
    const double truth = 2.0 * p.true_bandwidth_hz;
    const double est = p.estimate.nyquist_rate_hz;
    if (est > truth / 30.0 && est < 3.0 * truth) ++close;
  }
  ASSERT_GT(ok, 40u);
  EXPECT_GT(static_cast<double>(close) / static_cast<double>(ok), 0.5);
}

TEST(Audit, BitIdenticalAcrossThreadCounts) {
  // The audit fans per-pair work across threads; results must not depend
  // on the schedule (random streams are pre-forked sequentially).
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 60;
  fleet_cfg.seed = 3;
  fleet_cfg.topology.pods = 2;
  const tel::Fleet fleet(fleet_cfg);
  AuditConfig serial;
  serial.threads = 1;
  AuditConfig parallel;
  parallel.threads = 4;
  const auto a = run_audit(fleet, serial);
  const auto b = run_audit(fleet, parallel);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].device_name, b.pairs[i].device_name);
    EXPECT_EQ(a.pairs[i].estimate.verdict, b.pairs[i].estimate.verdict);
    EXPECT_DOUBLE_EQ(a.pairs[i].estimate.nyquist_rate_hz,
                     b.pairs[i].estimate.nyquist_rate_hz);
  }
}

TEST(Pipeline, CheaperAndAccurateOnCalmSignal) {
  // A slow tone monitored at a 60 s production interval: the pipeline must
  // cut cost substantially while reconstructing accurately.
  const sig::SumOfSines tone({{0.0002, 5.0, 0.0}}, /*dc=*/50.0);

  PipelineConfig cfg;
  cfg.sampler.initial_rate_hz = 1.0 / 60.0;
  cfg.sampler.min_rate_hz = 1e-4;
  cfg.sampler.max_rate_hz = 1.0;
  cfg.sampler.window_duration_s = 20000.0;
  const mon::AdaptiveMonitoringPipeline pipeline(cfg);
  const auto r = pipeline.run(tone, 0.0, 800000.0, 1.0 / 60.0);

  EXPECT_GT(r.cost_savings, 3.0);
  EXPECT_LT(r.nrmse, 0.05);
  EXPECT_LT(r.adaptive_cost.storage_bytes, r.baseline_cost.storage_bytes);
  EXPECT_EQ(r.reconstruction.size(), r.ground_truth.size());
}

TEST(Pipeline, RequantizationMatchesSourceLattice) {
  const sig::SumOfSines tone({{0.0005, 3.0, 0.0}}, 40.0);
  PipelineConfig cfg;
  cfg.sampler.initial_rate_hz = 0.02;
  cfg.sampler.window_duration_s = 20000.0;
  cfg.quantization_step = 1.0;
  const auto r = mon::AdaptiveMonitoringPipeline(cfg).run(tone, 0.0,
                                                          200000.0, 0.02);
  for (double v : r.reconstruction.values())
    EXPECT_DOUBLE_EQ(v, std::round(v));
}

TEST(Pipeline, InvalidArgsThrow) {
  const sig::SumOfSines tone({{0.001, 1.0, 0.0}});
  const mon::AdaptiveMonitoringPipeline pipeline;
  EXPECT_THROW((void)pipeline.run(tone, 0.0, -1.0, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)pipeline.run(tone, 0.0, 100.0, 0.0),
               std::invalid_argument);
}

}  // namespace
