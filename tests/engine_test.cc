// Fleet runs: the striped store's thread safety, end-to-end runs through
// the streaming runtime, and the determinism contract (one run digest
// whatever the worker count and SIMD dispatch level).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "dsp/simd.h"
#include "engine/engine.h"
#include "engine/report.h"
#include "monitor/striped_store.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "telemetry/fleet.h"

namespace {

using namespace nyqmon;

// -------------------------------------------------------- striped store --

TEST(StripedStore, ConcurrentIngestMatchesSerial) {
  const std::size_t kStreams = 32;
  const std::size_t kSamples = 300;

  auto ingest = [&](mon::StripedRetentionStore& store, bool concurrent) {
    for (std::size_t s = 0; s < kStreams; ++s)
      store.create_stream("stream" + std::to_string(s), 1.0);
    auto fill = [&store](std::size_t s) {
      std::vector<double> values(kSamples);
      for (std::size_t i = 0; i < kSamples; ++i)
        values[i] = std::sin(0.01 * static_cast<double>(i * (s + 1)));
      store.append_series("stream" + std::to_string(s), values);
    };
    if (concurrent) {
      std::vector<std::thread> pool;
      for (std::size_t s = 0; s < kStreams; ++s) pool.emplace_back(fill, s);
      for (auto& t : pool) t.join();
    } else {
      for (std::size_t s = 0; s < kStreams; ++s) fill(s);
    }
  };

  mon::StoreConfig cfg;
  cfg.chunk_samples = 64;
  mon::StripedRetentionStore serial(cfg, 4);
  mon::StripedRetentionStore parallel(cfg, 4);
  ingest(serial, false);
  ingest(parallel, true);

  const auto a = serial.rollup();
  const auto b = parallel.rollup();
  EXPECT_EQ(a.streams, kStreams);
  EXPECT_EQ(a.ingested_samples, b.ingested_samples);
  EXPECT_EQ(a.stored_samples, b.stored_samples);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_EQ(a.chunks_reduced, b.chunks_reduced);
  const mon::ReadSnapshot serial_snap = serial.acquire_snapshot();
  const mon::ReadSnapshot parallel_snap = parallel.acquire_snapshot();
  for (std::size_t s = 0; s < kStreams; ++s) {
    const std::string name = "stream" + std::to_string(s);
    const auto qa = serial_snap.query(name, 0.0, 100.0);
    const auto qb = parallel_snap.query(name, 0.0, 100.0);
    ASSERT_EQ(qa.size(), qb.size());
    for (std::size_t i = 0; i < qa.size(); ++i) EXPECT_EQ(qa[i], qb[i]);
  }
  EXPECT_EQ(serial.stream_names(), parallel.stream_names());
}

TEST(StripedStore, DelegatesStreamApi) {
  mon::StripedRetentionStore store({}, 8);
  store.create_stream("a", 1.0);
  EXPECT_THROW(store.create_stream("a", 1.0), std::invalid_argument);
  EXPECT_THROW(store.append_series("missing", std::vector<double>{1.0}),
               std::invalid_argument);
  store.append_series("a", std::vector<double>(10, 3.0));
  EXPECT_EQ(store.stats("a").ingested_samples, 10u);
  EXPECT_EQ(store.streams(), 1u);
  const auto series = store.acquire_snapshot().query("a", 0.0, 10.0);
  EXPECT_EQ(series.size(), 10u);
  EXPECT_NEAR(series[0], 3.0, 1e-12);
}

// ---------------------------------------------------------------- engine --

// Trimmed per-pair work: these tests are about scheduling, dispatch and
// buffer reuse, not trace length.
rt::RuntimeConfig trimmed_config(std::size_t workers) {
  rt::RuntimeConfig cfg;
  cfg.engine.workers = workers;
  cfg.engine.samples_per_window = 48;
  cfg.engine.windows_per_pair = 4;
  return cfg;
}

TEST(Engine, DeterminismStressAcrossWorkersAndSimd) {
  // The full matrix the scaling work must not perturb: every worker count
  // x every SIMD dispatch level has to produce the same run digest over a
  // 500-pair fleet. This is what lets the repo change FFT internals,
  // vectorize kernels, or reuse scratch buffers without ever re-baselining
  // a digest: the digest is defined by the computation, not by the
  // execution strategy. Buffer reuse is covered too: one worker runs every
  // pair inline on the calling thread's reused dsp::Workspace, while N
  // workers start fresh threads (fresh workspaces) on every poll, so 1-vs-N
  // equality shows that reuse leaks nothing from one pair into the next.
  constexpr std::uint64_t kDigest = 0x3ac88392f2e8c5edull;
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 500;
  fleet_cfg.seed = 424242;
  const tel::Fleet fleet(fleet_cfg);
  ASSERT_GE(fleet.size(), 500u);

  // Both dispatch levels: the scalar reference, plus AVX2 when this CPU
  // has it (the kernel-equivalence suite compares the two element-wise).
  std::vector<dsp::simd::Level> levels = {dsp::simd::Level::kScalar};
  if (dsp::simd::detected_level() != dsp::simd::Level::kScalar)
    levels.push_back(dsp::simd::detected_level());

  const dsp::simd::Level original = dsp::simd::active_level();
  for (const dsp::simd::Level level : levels) {
    dsp::simd::set_level(level);
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      rt::VirtualClock clock;
      rt::StreamingRuntime runtime(fleet, clock, trimmed_config(workers));
      const eng::FleetRunResult result = runtime.run_to_completion();
      EXPECT_EQ(result.workers_used, workers);
      EXPECT_EQ(eng::run_digest(result), kDigest)
          << "level=" << dsp::simd::level_name(level)
          << " workers=" << workers;
    }
  }
  dsp::simd::set_level(original);
}

TEST(Engine, RetainsQueryableStreamsAndReports) {
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 40;
  fleet_cfg.seed = 5;
  fleet_cfg.topology.pods = 2;
  const tel::Fleet fleet(fleet_cfg);

  rt::VirtualClock clock;
  rt::StreamingRuntime runtime(fleet, clock, trimmed_config(2));
  const auto result = runtime.run_to_completion();

  EXPECT_EQ(result.pairs.size(), 40u);
  EXPECT_EQ(runtime.store().streams(), 40u);
  for (const auto& pair : fleet.pairs()) {
    const std::string id = tel::stream_id(pair);
    const auto stats = runtime.store().stats(id);
    EXPECT_GT(stats.ingested_samples, 0u) << id;
    const auto series = runtime.store().acquire_snapshot().query(
        id, 0.0, 8.0 * pair.metric.poll_interval_s);
    EXPECT_EQ(series.size(), 8u) << id;
  }

  const auto report = eng::build_report(result);
  EXPECT_EQ(report.pairs, 40u);
  std::size_t pairs_in_report = 0;
  for (const auto& [kind, m] : report.by_metric) {
    pairs_in_report += m.pairs;
    EXPECT_EQ(m.cost_savings.size(), m.pairs);
    EXPECT_EQ(m.nrmse.size() + m.nrmse_degenerate, m.pairs);
  }
  EXPECT_EQ(pairs_in_report, 40u);
  const std::string rendered = eng::render(report);
  EXPECT_NE(rendered.find("fleet-wide cost savings"), std::string::npos);

  // Runs are single-shot.
  EXPECT_THROW(runtime.run_to_completion(), std::invalid_argument);
}

TEST(Engine, BadSamplerConfigIsRejectedAtConstruction) {
  // Every pair's sampler is built when the runtime is, so an invalid
  // template config surfaces on the caller's thread before any worker
  // starts, whatever the worker count. (parallel_claim's own exception
  // path is covered in tests/util_test.cc.)
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 16;
  fleet_cfg.topology.pods = 2;
  const tel::Fleet fleet(fleet_cfg);

  for (const std::size_t workers : {1u, 4u}) {
    rt::RuntimeConfig cfg;
    cfg.engine.workers = workers;
    cfg.engine.sampler.probe_factor = 1.0;  // rejected by each pair's sampler
    rt::VirtualClock clock;
    EXPECT_THROW({ rt::StreamingRuntime runtime(fleet, clock, cfg); },
                 std::invalid_argument)
        << workers;
  }
}

TEST(Engine, StreamIdsAreUniquePerPair) {
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 200;
  const tel::Fleet fleet(fleet_cfg);
  std::set<std::string> ids;
  for (const auto& pair : fleet.pairs()) ids.insert(tel::stream_id(pair));
  EXPECT_EQ(ids.size(), fleet.size());
}

TEST(Engine, SchedulePairScalesWithPollInterval) {
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 10;
  fleet_cfg.topology.pods = 2;
  const tel::Fleet fleet(fleet_cfg);
  for (const auto& pair : fleet.pairs()) {
    const auto s = tel::schedule_pair(pair, 64, 8);
    EXPECT_DOUBLE_EQ(s.production_rate_hz, 1.0 / pair.metric.poll_interval_s);
    EXPECT_DOUBLE_EQ(s.window_duration_s, 64.0 * pair.metric.poll_interval_s);
    EXPECT_DOUBLE_EQ(s.duration_s, 8.0 * s.window_duration_s);
  }
}

}  // namespace
