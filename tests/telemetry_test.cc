// Telemetry substrate: topology generation, metric models (all 14 of the
// paper's metrics), fleet assembly, and the imperfect production poller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "telemetry/fleet.h"
#include "telemetry/metric_model.h"
#include "telemetry/poller.h"
#include "telemetry/topology.h"
#include "util/rng.h"

namespace {

using nyqmon::Rng;
using namespace nyqmon::tel;

TEST(Topology, DeviceCountsMatchConfig) {
  TopologyConfig cfg;
  cfg.pods = 2;
  cfg.racks_per_pod = 3;
  cfg.servers_per_rack = 4;
  cfg.agg_per_pod = 2;
  cfg.core_switches = 5;
  const Topology topo(cfg);
  const auto count = [&](DeviceKind kind) {
    return std::count_if(topo.devices().begin(), topo.devices().end(),
                         [&](const Device& d) { return d.kind == kind; });
  };
  EXPECT_EQ(count(DeviceKind::kTorSwitch), 6);
  EXPECT_EQ(count(DeviceKind::kServer), 24);
  EXPECT_EQ(count(DeviceKind::kAggSwitch), 4);
  EXPECT_EQ(count(DeviceKind::kCoreSwitch), 5);
  EXPECT_EQ(topo.size(), 6u + 24u + 4u + 5u);
}

TEST(Topology, DeviceIdsUnique) {
  const Topology topo(TopologyConfig{});
  std::set<std::uint32_t> ids;
  for (const auto& d : topo.devices()) ids.insert(d.id);
  EXPECT_EQ(ids.size(), topo.size());
}

TEST(Topology, NamesEncodeLocation) {
  const Topology topo(TopologyConfig{});
  bool saw_tor = false, saw_core = false;
  for (const auto& d : topo.devices()) {
    if (d.kind == DeviceKind::kTorSwitch) {
      EXPECT_NE(d.name().find("tor"), std::string::npos);
      saw_tor = true;
    }
    if (d.kind == DeviceKind::kCoreSwitch) {
      EXPECT_EQ(d.name().rfind("core", 0), 0u);
      saw_core = true;
    }
  }
  EXPECT_TRUE(saw_tor);
  EXPECT_TRUE(saw_core);
}

TEST(MetricModel, FourteenDistinctMetrics) {
  EXPECT_EQ(all_metrics().size(), kMetricCount);
  std::set<std::string> names;
  for (auto kind : all_metrics()) names.insert(metric_name(kind));
  EXPECT_EQ(names.size(), kMetricCount);
}

TEST(MetricModel, SpecsAreSane) {
  for (auto kind : all_metrics()) {
    const auto& spec = metric_spec(kind);
    EXPECT_EQ(spec.kind, kind);
    EXPECT_GT(spec.poll_interval_s, 0.0) << metric_name(kind);
    EXPECT_GT(spec.quantization_step, 0.0);
    EXPECT_GT(spec.bandwidth_lo_hz, 0.0);
    EXPECT_LT(spec.bandwidth_lo_hz, spec.bandwidth_hi_hz);
    EXPECT_GT(spec.trace_duration_s, 10.0 * spec.poll_interval_s);
  }
}

TEST(MetricModel, TemperatureSpansPaperRange) {
  // The paper: temperature Nyquist rates range 7.99e-7 .. 3e-3 Hz, i.e.
  // band limits ~4e-7 .. 1.5e-3 Hz.
  const auto& spec = metric_spec(MetricKind::kTemperature);
  EXPECT_LE(spec.bandwidth_lo_hz, 5e-7);
  EXPECT_GE(spec.bandwidth_hi_hz, 1e-3);
  EXPECT_DOUBLE_EQ(spec.poll_interval_s, 300.0);  // Figure 6: 5-min polls
}

TEST(MetricModel, InstancesHaveGroundTruthBandLimit) {
  Rng rng(41);
  for (auto kind : all_metrics()) {
    const auto inst = make_metric_instance(kind, 86400.0, rng);
    ASSERT_NE(inst.signal, nullptr) << metric_name(kind);
    EXPECT_GT(inst.true_bandwidth_hz, 0.0);
    EXPECT_EQ(inst.kind, kind);
    // The instance's band limit ties to the underlying signal's.
    EXPECT_DOUBLE_EQ(inst.true_bandwidth_hz, inst.signal->bandwidth_hz());
  }
}

TEST(MetricModel, BandLimitVariesAcrossDevices) {
  // "Within a metric, the Nyquist rate varies widely across devices."
  Rng rng(42);
  double lo = 1e300, hi = 0.0;
  for (int i = 0; i < 40; ++i) {
    const auto inst = make_metric_instance(MetricKind::kLinkUtil, 86400.0, rng);
    lo = std::min(lo, inst.true_bandwidth_hz);
    hi = std::max(hi, inst.true_bandwidth_hz);
  }
  EXPECT_GT(hi / lo, 10.0);
}

TEST(MetricModel, ValuesAreFiniteOverTrace) {
  Rng rng(43);
  for (auto kind : all_metrics()) {
    const auto inst = make_metric_instance(kind, 3600.0, rng);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(std::isfinite(inst.signal->value(i * 36.0)))
          << metric_name(kind);
    }
  }
}

TEST(Fleet, HitsTargetPairCount) {
  FleetConfig cfg;
  cfg.target_pairs = 200;
  cfg.topology.pods = 2;
  const Fleet fleet(cfg);
  EXPECT_EQ(fleet.size(), 200u);
}

TEST(Fleet, CoversAllFourteenMetrics) {
  FleetConfig cfg;
  cfg.target_pairs = 400;
  const Fleet fleet(cfg);
  std::set<MetricKind> seen;
  for (const auto& p : fleet.pairs()) seen.insert(p.metric.kind);
  EXPECT_EQ(seen.size(), kMetricCount);
}

TEST(Fleet, MetricsMatchDeviceTier) {
  FleetConfig cfg;
  cfg.target_pairs = 600;
  const Fleet fleet(cfg);
  for (const auto& p : fleet.pairs()) {
    const auto allowed = Fleet::metrics_for(p.device.kind);
    EXPECT_NE(std::find(allowed.begin(), allowed.end(), p.metric.kind),
              allowed.end())
        << to_string(p.device.kind) << " exporting "
        << metric_name(p.metric.kind);
  }
}

TEST(Fleet, DeterministicForSeed) {
  FleetConfig cfg;
  cfg.target_pairs = 50;
  cfg.seed = 99;
  const Fleet a(cfg), b(cfg);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.pairs()[i].device.id, b.pairs()[i].device.id);
    EXPECT_DOUBLE_EQ(a.pairs()[i].metric.true_bandwidth_hz,
                     b.pairs()[i].metric.true_bandwidth_hz);
  }
}

TEST(Fleet, TooManyPairsForTopologyThrows) {
  FleetConfig cfg;
  cfg.target_pairs = 100000;
  cfg.topology.pods = 1;
  cfg.topology.racks_per_pod = 1;
  cfg.topology.servers_per_rack = 1;
  EXPECT_THROW(Fleet{cfg}, std::invalid_argument);
}

TEST(Poller, ProducesRoughlyNominalSampleCount) {
  Rng rng(44);
  const nyqmon::sig::SumOfSines tone({{0.001, 1.0, 0.0}});
  PollerConfig cfg;
  cfg.interval_s = 10.0;
  cfg.drop_prob = 0.0;
  const auto trace = poll(tone, 0.0, 1000.0, cfg, rng);
  EXPECT_EQ(trace.size(), 100u);
}

TEST(Poller, DropsReduceSampleCount) {
  Rng rng(45);
  const nyqmon::sig::SumOfSines tone({{0.001, 1.0, 0.0}});
  PollerConfig cfg;
  cfg.interval_s = 1.0;
  cfg.drop_prob = 0.3;
  const auto trace = poll(tone, 0.0, 10000.0, cfg, rng);
  EXPECT_LT(trace.size(), 8000u);
  EXPECT_GT(trace.size(), 6000u);
}

TEST(Poller, JitterPerturbsTimestampsButKeepsOrderStatistics) {
  Rng rng(46);
  const nyqmon::sig::SumOfSines tone({{0.001, 1.0, 0.0}});
  PollerConfig cfg;
  cfg.interval_s = 10.0;
  cfg.jitter_frac = 0.2;
  cfg.drop_prob = 0.0;
  const auto trace = poll(tone, 0.0, 5000.0, cfg, rng);
  EXPECT_NEAR(trace.median_interval(), 10.0, 2.0);
  bool any_off_grid = false;
  for (const auto& s : trace.samples()) {
    if (std::abs(std::remainder(s.t, 10.0)) > 1e-9) any_off_grid = true;
  }
  EXPECT_TRUE(any_off_grid);
}

TEST(Poller, QuantizationSnapsValues) {
  Rng rng(47);
  const nyqmon::sig::SumOfSines tone({{0.001, 5.0, 0.0}}, /*dc=*/20.0);
  PollerConfig cfg;
  cfg.interval_s = 10.0;
  cfg.quantization_step = 1.0;
  cfg.jitter_frac = 0.0;
  cfg.drop_prob = 0.0;
  const auto trace = poll(tone, 0.0, 10000.0, cfg, rng);
  for (const auto& s : trace.samples())
    EXPECT_DOUBLE_EQ(s.v, std::round(s.v));
}

TEST(Poller, NoiseAddsVariance) {
  Rng rng(48);
  const nyqmon::sig::SumOfSines flat({}, /*dc=*/10.0);
  PollerConfig cfg;
  cfg.interval_s = 1.0;
  cfg.noise_stddev = 0.5;
  cfg.jitter_frac = 0.0;
  cfg.drop_prob = 0.0;
  const auto trace = poll(flat, 0.0, 5000.0, cfg, rng);
  double var = 0.0;
  for (const auto& s : trace.samples()) var += (s.v - 10.0) * (s.v - 10.0);
  var /= static_cast<double>(trace.size());
  EXPECT_NEAR(std::sqrt(var), 0.5, 0.05);
}

TEST(Poller, TooShortDurationThrows) {
  Rng rng(49);
  const nyqmon::sig::SumOfSines tone({{0.001, 1.0, 0.0}});
  PollerConfig cfg;
  cfg.interval_s = 100.0;
  EXPECT_THROW((void)poll(tone, 0.0, 150.0, cfg, rng), std::invalid_argument);
}

}  // namespace
