// Scenario subsystem: spec parse round-trip and error paths, waveform
// adaptor semantics, the per-stream seeding contract, and the headline
// determinism guarantee — the same spec + seed produces a bit-identical
// engine digest at 1 vs 4 workers.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>

#include "engine/report.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "scenario/frontier.h"
#include "scenario/scenario.h"
#include "scenario/spec.h"
#include "scenario/waveforms.h"
#include "signal/generators.h"
#include "telemetry/fleet.h"
#include "util/rng.h"

namespace {

using namespace nyqmon;

// ------------------------------------------------------------- waveforms --

std::shared_ptr<sig::SumOfSines> test_tone() {
  return std::make_shared<sig::SumOfSines>(
      std::vector<sig::Tone>{{0.01, 1.0, 0.3}}, 2.0);
}

TEST(Waveforms, LinearDriftAddsRamp) {
  const auto base = test_tone();
  const scn::LinearDrift drift(base, 10.0, 0.5);
  for (const double t : {0.0, 3.0, 100.0})
    EXPECT_DOUBLE_EQ(drift.value(t), base->value(t) + 10.0 + 0.5 * t);
  EXPECT_DOUBLE_EQ(drift.bandwidth_hz(), base->bandwidth_hz());
}

TEST(Waveforms, OutageGateCollapsesToFloorInsideWindows) {
  const auto base = test_tone();
  const scn::OutageGate gated(base, {{1000.0, 2000.0}}, 10.0, -5.0);
  // Deep inside the outage: pinned to the floor.
  EXPECT_NEAR(gated.value(1500.0), -5.0, 1e-6);
  EXPECT_NEAR(gated.gate(1500.0), 0.0, 1e-9);
  // Far outside: passthrough.
  EXPECT_NEAR(gated.value(100.0), base->value(100.0), 1e-9);
  EXPECT_NEAR(gated.gate(100.0), 1.0, 1e-9);
  // The gate widens the band limit by the edge's 1e-6 point.
  EXPECT_GT(gated.bandwidth_hz(), base->bandwidth_hz());
}

// A base that counts its evaluations and reads NaN inside [nan_from,
// nan_to): a closed gate must neither call it nor let its NaN through.
class CountingBase final : public sig::ContinuousSignal {
 public:
  CountingBase(double nan_from, double nan_to)
      : nan_from_(nan_from), nan_to_(nan_to) {}
  double value(double t) const override {
    calls_.fetch_add(1);
    if (t >= nan_from_ && t < nan_to_)
      return std::numeric_limits<double>::quiet_NaN();
    return 2.0 + std::sin(0.01 * t);
  }
  double bandwidth_hz() const override { return 0.01; }
  std::size_t calls() const { return calls_.load(); }

 private:
  double nan_from_, nan_to_;
  mutable std::atomic<std::size_t> calls_{0};
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Waveforms, ClosedOutageGateReturnsTheFloorWithoutTheBase) {
  for (const double floor : {0.0, -5.0}) {
    const auto base = std::make_shared<CountingBase>(1400.0, 1600.0);
    const scn::OutageGate gated(base, {{1000.0, 2000.0}}, 10.0, floor);
    for (const double t : {1300.0, 1500.0, 1700.0}) {
      ASSERT_EQ(gated.gate(t), 0.0);
      EXPECT_EQ(bits(gated.value(t)), bits(floor)) << "floor=" << floor;
    }
    EXPECT_EQ(base->calls(), 0u);
    // Open and partly open: the full formula, bit for bit.
    for (const double t : {100.0, 990.0, 1000.0, 1010.0, 1990.0, 2010.0,
                           2500.0}) {
      const double want = floor + gated.gate(t) * (base->value(t) - floor);
      EXPECT_EQ(bits(gated.value(t)), bits(want)) << "t=" << t;
    }
  }
}

TEST(Waveforms, ClosedOutageGateWithNegativeZeroFloorEvaluatesTheBase) {
  // -0.0 + 0.0 * (positive) is +0.0, not the floor: today's result stands.
  const auto base = std::make_shared<CountingBase>(0.0, 0.0);  // never NaN
  const scn::OutageGate gated(base, {{1000.0, 2000.0}}, 10.0, -0.0);
  ASSERT_EQ(gated.gate(1500.0), 0.0);
  const double want = -0.0 + 0.0 * (base->value(1500.0) - -0.0);
  const std::size_t before = base->calls();
  EXPECT_EQ(bits(gated.value(1500.0)), bits(want));
  EXPECT_FALSE(std::signbit(gated.value(1500.0)));
  EXPECT_GT(base->calls(), before);
}

TEST(Waveforms, OutageGateMergesOverlappingWindows) {
  const auto base = test_tone();
  const scn::OutageGate gated(base, {{100.0, 300.0}, {200.0, 500.0}}, 5.0,
                              0.0);
  EXPECT_NEAR(gated.gate(250.0), 0.0, 1e-9);  // inside the merged window
  EXPECT_NEAR(gated.gate(400.0), 0.0, 1e-9);
  EXPECT_NEAR(gated.gate(700.0), 1.0, 1e-6);
}

TEST(Waveforms, ClockWarpShiftsAndScalesTime) {
  const auto base = test_tone();
  const scn::ClockWarp warp(base, 7.0, 100e-6);
  for (const double t : {0.0, 50.0, 1234.5})
    EXPECT_DOUBLE_EQ(warp.value(t), base->value(7.0 + 1.0001 * t));
  EXPECT_DOUBLE_EQ(warp.bandwidth_hz(), base->bandwidth_hz() * 1.0001);
}

// ------------------------------------------------------------ spec parse --

TEST(ScenarioSpec, ParseRoundTripsThroughSerialize) {
  scn::ScenarioSpec spec = scn::default_scenario(100, 77);
  const std::string text = scn::serialize_scenario(spec);
  const scn::ScenarioSpec reparsed = scn::parse_scenario(text);
  EXPECT_TRUE(reparsed == spec) << text;
  // And the canonical form is a fixed point.
  EXPECT_EQ(scn::serialize_scenario(reparsed), text);
}

TEST(ScenarioSpec, ParseAcceptsCommentsAndDefaults) {
  const scn::ScenarioSpec spec = scn::parse_scenario(
      "# a comment\n"
      "scenario tiny\n"
      "\n"
      "group g1\n"
      "  family bursty\n"
      "  streams 3\n");
  EXPECT_EQ(spec.name, "tiny");
  EXPECT_EQ(spec.seed, 1u);
  EXPECT_EQ(spec.run_samples, 512u);
  ASSERT_EQ(spec.groups.size(), 1u);
  EXPECT_EQ(spec.groups[0].family, scn::SignalFamily::kBursty);
  EXPECT_EQ(scn::effective_metric(spec.groups[0]),
            tel::MetricKind::kUnicastDrops);
  EXPECT_EQ(spec.total_streams(), 3u);
}

TEST(ScenarioSpec, ParseErrorsCarryLineNumbers) {
  auto expect_throw = [](const std::string& text, const std::string& needle) {
    try {
      scn::parse_scenario(text);
      FAIL() << "expected invalid_argument for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_throw("group g\n", "expected 'scenario");
  expect_throw("scenario s\nscenario t\n", "line 2");
  expect_throw("scenario s\nstreams 4\n", "must appear inside a group");
  expect_throw("scenario s\ngroup g\n  family sawtooth\n", "unknown signal family");
  expect_throw("scenario s\ngroup g\n  metric Bogus\n", "unknown metric");
  expect_throw("scenario s\ngroup g\n  streams nope\n", "malformed integer");
  expect_throw("scenario s\ngroup g\n  poll_interval_s abc\n", "malformed number");
  expect_throw("scenario s\ngroup g\n  frobnicate 3\n", "unknown key");
  // `family` is required per group, with the group's line in the message.
  expect_throw("scenario s\ngroup g\n  streams 2\n", "missing required key");
  expect_throw("scenario s\ngroup a\n  streams 1\ngroup b\n  family gauge\n"
               "  streams 1\n",
               "line 2");
  // Non-finite numbers would alias the unset sentinel; rejected outright.
  expect_throw("scenario s\ngroup g\n  family gauge\n  dc_level nan\n",
               "malformed number");
  // Negative values are explicit settings and hit the range checks (they
  // must not silently fall back to metric defaults).
  expect_throw(
      "scenario s\ngroup g\n  family gauge\n  streams 2\n"
      "  poll_interval_s -5\n",
      "poll_interval_s must be > 0");
  // Validation failures surface as invalid_argument too.
  expect_throw("scenario s\n", "at least one group");
  expect_throw("scenario s\ngroup g\n  family gauge\n", "streams must be >= 1");
  expect_throw("scenario s\ngroup g\n  family gauge\n  streams 2\n"
               "  correlation 1.5\n",
               "correlation");
  expect_throw(
      "scenario s\ngroup g\n  family gauge\n  streams 2\n"
      "  bandwidth_lo_hz 0.1\n",
      "must be set together");
  expect_throw("scenario s\ngroup a\n  family gauge\n  streams 1\n"
               "group a\n  family gauge\n  streams 1\n",
               "duplicate");
}

TEST(ScenarioSpec, NegativeDcLevelIsAnExplicitSetting) {
  const scn::ScenarioSpec spec = scn::parse_scenario(
      "scenario signed\ngroup g\n  family gauge\n  streams 2\n"
      "  dc_level -12.5\n");
  ASSERT_TRUE(spec.groups[0].is_set(spec.groups[0].dc_level));
  EXPECT_DOUBLE_EQ(spec.groups[0].dc_level, -12.5);
  // And it survives the canonical round trip.
  EXPECT_TRUE(scn::parse_scenario(scn::serialize_scenario(spec)) == spec);
  // The built signal is actually centered below zero.
  const scn::BuiltScenario built = scn::build_scenario(spec);
  double mean = 0.0;
  std::size_t n = 0;
  for (double t = 0.0; t < 2.0e5; t += 1000.0, ++n)
    mean += built.fleet.pairs()[0].metric.signal->value(t);
  EXPECT_LT(mean / static_cast<double>(n), 0.0);
}

TEST(ScenarioSpec, DropoutDurationRoundTripsWithoutDropoutRate) {
  // dropout_duration_s without dropout_per_day is valid (inert) and must
  // not be dropped by the serializer.
  scn::ScenarioSpec spec;
  spec.name = "inert";
  scn::StreamGroupSpec g;
  g.name = "g";
  g.family = scn::SignalFamily::kGauge;
  g.streams = 1;
  g.dropout_duration_s = 600.0;
  spec.groups.push_back(g);
  scn::validate(spec);
  EXPECT_TRUE(scn::parse_scenario(scn::serialize_scenario(spec)) == spec);
}

TEST(ScenarioSpec, LoadScenarioFileReportsMissingPath) {
  EXPECT_THROW(scn::load_scenario_file("/nonexistent/spec.scn"),
               std::runtime_error);
}

// -------------------------------------------------------------- building --

scn::ScenarioSpec small_spec(std::uint64_t seed = 5) {
  // One group per family — exercises every construction path cheaply.
  scn::ScenarioSpec spec = scn::default_scenario(14, seed);
  return spec;
}

TEST(ScenarioBuild, GroupRangesPartitionTheFleet) {
  const scn::BuiltScenario built = scn::build_scenario(small_spec());
  EXPECT_EQ(built.name, "default-mix");
  std::size_t next = 0;
  for (const auto& g : built.groups) {
    EXPECT_EQ(g.first_pair, next);
    EXPECT_GE(g.pairs, 1u);
    next += g.pairs;
  }
  EXPECT_EQ(next, built.fleet.size());

  // Every pair is drivable: unique stream IDs, positive band limits.
  std::set<std::string> ids;
  for (const auto& pair : built.fleet.pairs()) {
    EXPECT_TRUE(ids.insert(tel::stream_id(pair)).second);
    EXPECT_GT(pair.metric.true_bandwidth_hz, 0.0);
    EXPECT_GT(pair.metric.poll_interval_s, 0.0);
  }
}

TEST(ScenarioBuild, RebuildIsBitIdentical) {
  const scn::BuiltScenario a = scn::build_scenario(small_spec());
  const scn::BuiltScenario b = scn::build_scenario(small_spec());
  ASSERT_EQ(a.fleet.size(), b.fleet.size());
  for (std::size_t i = 0; i < a.fleet.size(); ++i) {
    const auto& pa = a.fleet.pairs()[i];
    const auto& pb = b.fleet.pairs()[i];
    EXPECT_EQ(tel::stream_id(pa), tel::stream_id(pb));
    EXPECT_EQ(pa.metric.true_bandwidth_hz, pb.metric.true_bandwidth_hz);
    for (const double t : {0.0, 111.0, 5000.0, 100000.0})
      EXPECT_EQ(pa.metric.signal->value(t), pb.metric.signal->value(t)) << i;
  }
}

TEST(ScenarioBuild, StreamSeedsAreStableUnderGroupEdits) {
  // Removing a later group must not perturb an earlier group's streams:
  // seeds hash (scenario seed, group name, index), not build order.
  scn::ScenarioSpec two = small_spec();
  scn::ScenarioSpec one = two;
  one.groups.resize(1);

  const scn::BuiltScenario built_two = scn::build_scenario(two);
  const scn::BuiltScenario built_one = scn::build_scenario(one);
  ASSERT_EQ(built_one.groups.size(), 1u);
  ASSERT_EQ(built_one.groups[0].pairs, built_two.groups[0].pairs);
  for (std::size_t i = 0; i < built_one.groups[0].pairs; ++i) {
    const auto& pa = built_one.fleet.pairs()[i];
    const auto& pb = built_two.fleet.pairs()[i];
    for (const double t : {0.0, 333.0, 44444.0})
      EXPECT_EQ(pa.metric.signal->value(t), pb.metric.signal->value(t)) << i;
  }
  EXPECT_EQ(scn::stream_seed(one, one.groups[0], 3),
            scn::stream_seed(two, two.groups[0], 3));
}

TEST(ScenarioBuild, MonotoneCountersAreNonDecreasing) {
  scn::ScenarioSpec spec;
  spec.name = "counters";
  spec.seed = 11;
  scn::StreamGroupSpec g;
  g.name = "ctr";
  g.family = scn::SignalFamily::kMonotoneCounter;
  g.streams = 4;
  spec.groups.push_back(g);

  const scn::BuiltScenario built = scn::build_scenario(spec);
  for (const auto& pair : built.fleet.pairs()) {
    double prev = -1e300;
    for (double t = 0.0; t < 6.0e4; t += 500.0) {
      const double v = pair.metric.signal->value(t);
      EXPECT_GE(v, prev - 1e-9) << tel::stream_id(pair) << " at t=" << t;
      prev = v;
    }
  }
}

TEST(ScenarioBuild, CorrelatedStreamsShareAComponent) {
  scn::ScenarioSpec spec;
  spec.name = "corr";
  spec.seed = 3;
  scn::StreamGroupSpec g;
  g.name = "g";
  g.family = scn::SignalFamily::kGauge;
  g.streams = 6;
  g.correlation = 0.9;
  spec.groups.push_back(g);
  g.name = "indep";
  g.correlation = 0.0;
  spec.groups.push_back(g);

  const scn::BuiltScenario built = scn::build_scenario(spec);
  // Sample correlation of deviations across stream pairs: the correlated
  // group must sit far above the independent one.
  auto mean_pairwise_corr = [&](const scn::GroupRange& range) {
    std::vector<std::vector<double>> series;
    for (std::size_t i = range.first_pair;
         i < range.first_pair + range.pairs; ++i) {
      std::vector<double> v;
      for (double t = 0.0; t < 2.0e5; t += 1000.0)
        v.push_back(built.fleet.pairs()[i].metric.signal->value(t));
      series.push_back(std::move(v));
    }
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t a = 0; a < series.size(); ++a) {
      for (std::size_t b = a + 1; b < series.size(); ++b) {
        double ma = 0, mb = 0;
        for (std::size_t k = 0; k < series[a].size(); ++k) {
          ma += series[a][k];
          mb += series[b][k];
        }
        ma /= static_cast<double>(series[a].size());
        mb /= static_cast<double>(series[b].size());
        double num = 0, da = 0, db = 0;
        for (std::size_t k = 0; k < series[a].size(); ++k) {
          num += (series[a][k] - ma) * (series[b][k] - mb);
          da += (series[a][k] - ma) * (series[a][k] - ma);
          db += (series[b][k] - mb) * (series[b][k] - mb);
        }
        acc += num / std::sqrt(da * db);
        ++n;
      }
    }
    return acc / static_cast<double>(n);
  };
  const double corr = mean_pairwise_corr(built.groups[0]);
  const double indep = mean_pairwise_corr(built.groups[1]);
  EXPECT_GT(corr, 0.5) << "correlated group";
  EXPECT_LT(std::abs(indep), 0.4) << "independent group";
  EXPECT_GT(corr, std::abs(indep));
}

// ----------------------------------------------- engine-level determinism --

TEST(ScenarioEngine, DigestBitIdenticalAcrossWorkerCounts) {
  // The acceptance gate: same spec + seed -> bit-identical run digest
  // whatever the worker count (TSan-sized fleet). The serial digest is
  // also pinned absolutely: tel::Fleet (the engine tests' digests) never
  // builds an OutageGate, a LinearDrift or a scenario step train, so this
  // pin is what catches an edit that changes those waveforms' bits.
  constexpr std::uint64_t kDigest = 0x774b2d0254d03f44ull;
  scn::ScenarioSpec spec = scn::default_scenario(28, 99);
  const scn::BuiltScenario built = scn::build_scenario(spec);

  auto digest_of = [](const tel::Fleet& fleet, std::size_t workers) {
    rt::RuntimeConfig cfg;
    cfg.engine.workers = workers;
    cfg.engine.samples_per_window = 48;
    cfg.engine.windows_per_pair = 4;
    rt::VirtualClock clock;
    rt::StreamingRuntime runtime(fleet, clock, cfg);
    return eng::run_digest(runtime.run_to_completion());
  };
  const std::uint64_t serial = digest_of(built.fleet, 1);
  EXPECT_EQ(serial, kDigest) << std::hex << "got 0x" << serial;
  const std::uint64_t parallel = digest_of(built.fleet, 4);
  EXPECT_EQ(serial, parallel);

  // A rebuilt scenario digests identically too (build + run determinism).
  const scn::BuiltScenario rebuilt = scn::build_scenario(spec);
  EXPECT_EQ(digest_of(rebuilt.fleet, 2), serial);

  // And a different scenario seed must not.
  spec.seed = 100;
  const scn::BuiltScenario other = scn::build_scenario(spec);
  EXPECT_NE(digest_of(other.fleet, 2), serial);
}

TEST(ScenarioFrontier, CellsCoverTheGridAndEveryGroup) {
  const scn::BuiltScenario built = scn::build_scenario(small_spec());
  scn::FrontierConfig cfg;
  cfg.energy_cutoffs = {0.90, 0.99};
  cfg.max_slowdowns = {4.0};
  cfg.engine.samples_per_window = 48;
  cfg.engine.windows_per_pair = 3;
  const scn::FrontierResult result = scn::run_frontier(built, cfg);

  EXPECT_EQ(result.scenario, "default-mix");
  EXPECT_EQ(result.grid_points, 2u);
  EXPECT_EQ(result.cells.size(), 2u * built.groups.size());
  EXPECT_EQ(result.pair_runs, 2u * built.fleet.size());
  for (const auto& cell : result.cells) {
    EXPECT_GE(cell.pairs, 1u);
    EXPECT_GT(cell.cost_savings, 0.0);
    EXPECT_GE(cell.byte_compression, 1.0);
    EXPECT_GE(cell.aliased_fraction, 0.0);
    EXPECT_LE(cell.aliased_fraction, 1.0);
  }
  EXPECT_FALSE(scn::render(result).empty());
}

}  // namespace
