// StreamingRuntime: clock behavior, the deadline scheduler, live serving
// during ingest, incremental durable checkpoints, and the headline
// contract — a virtual-clock run produces bit-identical outcomes, store
// contents and query results at any worker count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "monitor/striped_store.h"
#include "query/builder.h"
#include "query/engine.h"
#include "query/spec.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "storage/manager.h"
#include "telemetry/fleet.h"

namespace {

using namespace nyqmon;
namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::temp_directory_path() / ("nyqmon_runtime_test_" + name))
                 .string()) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

// Bit-exact double comparison (NaN-safe).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_values(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), 8 * a.size()) == 0);
}

// ---------------------------------------------------------------- clocks --

TEST(Clock, VirtualClockAdvancesMonotonically) {
  rt::VirtualClock clock;
  EXPECT_EQ(clock.now_s(), 0.0);
  clock.sleep_until_s(42.0);
  EXPECT_EQ(clock.now_s(), 42.0);
  clock.sleep_until_s(10.0);  // never backward
  EXPECT_EQ(clock.now_s(), 42.0);
  clock.advance_to(43.5);
  EXPECT_EQ(clock.now_s(), 43.5);
}

TEST(Clock, SteadyClockTracksRealTimeAndWakes) {
  rt::SteadyClock clock;
  const double t0 = clock.now_s();
  EXPECT_GE(t0, 0.0);
  // A sleeper should be interruptible well before its deadline.
  std::thread waker([&clock] { clock.wake(); });
  clock.sleep_until_s(t0 + 30.0);
  waker.join();
  EXPECT_LT(clock.now_s(), t0 + 10.0);
}

// ------------------------------------------------------------- scheduler --

tel::Fleet small_fleet(std::size_t pairs, std::uint64_t seed) {
  tel::FleetConfig cfg;
  cfg.target_pairs = pairs;
  cfg.seed = seed;
  return tel::Fleet(cfg);
}

eng::EngineConfig small_engine_config() {
  eng::EngineConfig cfg;
  cfg.workers = 2;
  cfg.samples_per_window = 48;
  cfg.windows_per_pair = 4;
  return cfg;
}

// Longest pair timeline in the fleet — a sane query horizon (an unbounded
// t_end would ask the aligner for a multi-million-point output grid).
double fleet_span_s(const tel::Fleet& fleet, const eng::EngineConfig& cfg) {
  double hi = 0.0;
  for (const auto& p : fleet.pairs()) {
    hi = std::max(hi, tel::schedule_pair(p, cfg.samples_per_window,
                                         cfg.windows_per_pair)
                          .duration_s);
  }
  return hi;
}

TEST(Runtime, PollBeforeAnyDeadlineDoesNothing) {
  const tel::Fleet fleet = small_fleet(8, 5);
  rt::VirtualClock clock;
  rt::RuntimeConfig cfg;
  cfg.engine = small_engine_config();
  rt::StreamingRuntime runtime(fleet, clock, cfg);

  EXPECT_FALSE(runtime.done());
  EXPECT_TRUE(std::isfinite(runtime.next_deadline_s()));
  EXPECT_GT(runtime.next_deadline_s(), 0.0);
  // The clock sits at t=0: no window has sealed yet.
  EXPECT_EQ(runtime.poll(), 0u);
  EXPECT_EQ(runtime.stats().windows_processed, 0u);
}

TEST(Runtime, StepDrivesWindowsInDeadlineOrder) {
  const tel::Fleet fleet = small_fleet(8, 5);
  rt::VirtualClock clock;
  rt::RuntimeConfig cfg;
  cfg.engine = small_engine_config();
  rt::StreamingRuntime runtime(fleet, clock, cfg);

  const std::size_t first = runtime.step();
  EXPECT_GT(first, 0u);
  EXPECT_GT(runtime.stats().values_ingested, 0u);

  std::size_t guard = 0;
  while (!runtime.done() && ++guard < 10'000) runtime.step();
  EXPECT_TRUE(runtime.done());
  EXPECT_EQ(runtime.stats().pairs_done, fleet.size());
  // Every pair ran windows_per_pair windows.
  EXPECT_EQ(runtime.stats().windows_processed,
            fleet.size() * cfg.engine.windows_per_pair);
}

// --------------------------------------- 1 vs 4 workers, 500 pairs, bitwise --

TEST(Runtime, FivehundredPairsBitIdenticalAtOneAndFourWorkers) {
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 500;
  fleet_cfg.seed = 99;
  const tel::Fleet fleet(fleet_cfg);
  ASSERT_GE(fleet.size(), 500u);

  rt::RuntimeConfig serial_cfg;
  serial_cfg.engine = small_engine_config();
  serial_cfg.engine.workers = 1;
  rt::RuntimeConfig parallel_cfg = serial_cfg;
  parallel_cfg.engine.workers = 4;

  rt::VirtualClock serial_clock;
  rt::StreamingRuntime serial(fleet, serial_clock, serial_cfg);
  const eng::FleetRunResult serial_result = serial.run_to_completion();
  rt::VirtualClock parallel_clock;
  rt::StreamingRuntime parallel(fleet, parallel_clock, parallel_cfg);
  const eng::FleetRunResult parallel_result = parallel.run_to_completion();
  EXPECT_EQ(serial_result.workers_used, 1u);
  EXPECT_EQ(parallel_result.workers_used, 4u);

  // Per-pair outcomes, bit for bit.
  ASSERT_EQ(serial_result.pairs.size(), fleet.size());
  ASSERT_EQ(parallel_result.pairs.size(), fleet.size());
  for (std::size_t i = 0; i < serial_result.pairs.size(); ++i) {
    const auto& a = serial_result.pairs[i];
    const auto& b = parallel_result.pairs[i];
    ASSERT_EQ(a.stream_id, b.stream_id);
    EXPECT_TRUE(same_bits(a.production_rate_hz, b.production_rate_hz));
    EXPECT_TRUE(same_bits(a.cost_savings, b.cost_savings)) << a.stream_id;
    EXPECT_TRUE(same_bits(a.nrmse, b.nrmse)) << a.stream_id;
    EXPECT_TRUE(same_bits(a.max_abs_error, b.max_abs_error)) << a.stream_id;
    EXPECT_EQ(a.adaptive_samples, b.adaptive_samples) << a.stream_id;
    EXPECT_EQ(a.baseline_samples, b.baseline_samples) << a.stream_id;
    EXPECT_EQ(a.audit.windows, b.audit.windows);
    EXPECT_EQ(a.audit.aliased_windows, b.audit.aliased_windows);
    EXPECT_EQ(a.audit.probe_windows, b.audit.probe_windows);
    EXPECT_TRUE(same_bits(a.audit.final_rate_hz, b.audit.final_rate_hz));
    EXPECT_TRUE(same_bits(a.audit.max_rate_hz, b.audit.max_rate_hz));
    EXPECT_EQ(a.store_bytes_raw, b.store_bytes_raw) << a.stream_id;
    EXPECT_EQ(a.store_bytes_stored, b.store_bytes_stored) << a.stream_id;
  }

  // Fleet aggregates.
  EXPECT_TRUE(same_bits(serial_result.fleet_cost_savings(),
                        parallel_result.fleet_cost_savings()));
  EXPECT_EQ(serial_result.adaptive_cost.samples,
            parallel_result.adaptive_cost.samples);
  EXPECT_EQ(serial_result.baseline_cost.samples,
            parallel_result.baseline_cost.samples);
  EXPECT_EQ(serial_result.store.streams, parallel_result.store.streams);
  EXPECT_EQ(serial_result.store.ingested_samples,
            parallel_result.store.ingested_samples);
  EXPECT_EQ(serial_result.store.stored_samples,
            parallel_result.store.stored_samples);
  EXPECT_EQ(serial_result.store.chunks, parallel_result.store.chunks);
  EXPECT_EQ(serial_result.store.chunks_reduced,
            parallel_result.store.chunks_reduced);
  EXPECT_EQ(serial_result.store.bytes_raw, parallel_result.store.bytes_raw);
  EXPECT_EQ(serial_result.store.bytes_stored,
            parallel_result.store.bytes_stored);

  // Store contents: every stream's sealed chunks and hot tail, bit for bit.
  const auto names = serial.store().stream_names();
  ASSERT_EQ(names, parallel.store().stream_names());
  const mon::ReadSnapshot serial_snap = serial.store().acquire_snapshot();
  const mon::ReadSnapshot parallel_snap = parallel.store().acquire_snapshot();
  for (const auto& name : names) {
    const auto a = serial_snap.export_stream(name);
    const auto b = parallel_snap.export_stream(name);
    ASSERT_EQ(a.chunks.size(), b.chunks.size()) << name;
    for (std::size_t c = 0; c < a.chunks.size(); ++c) {
      EXPECT_TRUE(same_bits(a.chunks[c].t0, b.chunks[c].t0)) << name;
      EXPECT_TRUE(same_bits(a.chunks[c].dt, b.chunks[c].dt)) << name;
      EXPECT_TRUE(same_values(a.chunks[c].values, b.chunks[c].values)) << name;
    }
    EXPECT_TRUE(same_values(a.hot, b.hot)) << name;
    EXPECT_TRUE(same_bits(a.collection_rate_hz, b.collection_rate_hz));

    const auto meta = serial_snap.find_meta(name).value();
    const auto q_a = serial_snap.query(name, meta.t0, meta.t_end);
    const auto q_b = parallel_snap.query(name, meta.t0, meta.t_end);
    EXPECT_TRUE(same_bits(q_a.t0(), q_b.t0())) << name;
    EXPECT_TRUE(same_values(q_a.span(), q_b.span())) << name;
  }

  // Query-engine results over the served store, bit for bit.
  const double span = fleet_span_s(fleet, serial_cfg.engine);
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("*/*")
                                  .range(0.0, span)
                                  .align(span / 512.0)
                                  .aggregate(qry::Aggregation::kP95)
                                  .build();
  const auto r_serial = qry::QueryEngine(serial.store()).run(spec);
  const auto r_parallel = qry::QueryEngine(parallel.store()).run(spec);
  ASSERT_EQ(r_serial.result->series.size(), r_parallel.result->series.size());
  for (std::size_t s = 0; s < r_serial.result->series.size(); ++s) {
    EXPECT_EQ(r_serial.result->series[s].label,
              r_parallel.result->series[s].label);
    EXPECT_TRUE(same_values(r_serial.result->series[s].series.span(),
                            r_parallel.result->series[s].series.span()));
  }
}

// -------------------------------------------------- live serving & cache --

TEST(Runtime, ServesQueriesDuringIngestWithGenerationInvalidation) {
  const tel::Fleet fleet = small_fleet(24, 7);
  rt::VirtualClock clock;
  rt::RuntimeConfig cfg;
  cfg.engine = small_engine_config();
  rt::StreamingRuntime runtime(fleet, clock, cfg);

  // Ingest part of the timeline.
  runtime.step();
  runtime.step();
  ASSERT_FALSE(runtime.done());

  const double span = fleet_span_s(fleet, cfg.engine);
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("*/*")
                                  .range(0.0, span)
                                  .align(span / 256.0)
                                  .aggregate(qry::Aggregation::kAvg)
                                  .build();

  qry::QueryEngine qe(runtime.store());
  const auto early = qe.run(spec);
  ASSERT_FALSE(early.cache_hit);
  const auto early_again = qe.run(spec);
  EXPECT_TRUE(early_again.cache_hit);  // nothing ingested in between

  // More ingest must invalidate the cached result (generation bump), and
  // the refreshed result must see the longer streams.
  std::size_t guard = 0;
  while (!runtime.done() && ++guard < 10'000) runtime.step();
  const auto final_q = qe.run(spec);
  EXPECT_FALSE(final_q.cache_hit);
  ASSERT_FALSE(final_q.result->series.empty());
  ASSERT_FALSE(early.result->series.empty());
  EXPECT_GE(final_q.result->reconstructed.size(),
            early.result->reconstructed.size());

  // And the served result matches a second runtime over the same fleet,
  // run to completion with no queries in between.
  rt::VirtualClock other_clock;
  rt::StreamingRuntime other(fleet, other_clock, cfg);
  other.run_to_completion();
  const auto other_q = qry::QueryEngine(other.store()).run(spec);
  ASSERT_EQ(other_q.result->series.size(), final_q.result->series.size());
  for (std::size_t s = 0; s < other_q.result->series.size(); ++s) {
    EXPECT_TRUE(same_values(other_q.result->series[s].series.span(),
                            final_q.result->series[s].series.span()));
  }
}

TEST(Runtime, ConcurrentQueriesWhilePolling) {
  const tel::Fleet fleet = small_fleet(32, 11);
  rt::VirtualClock clock;
  rt::RuntimeConfig cfg;
  cfg.engine = small_engine_config();
  rt::StreamingRuntime runtime(fleet, clock, cfg);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> queries{0};
  const double span = fleet_span_s(fleet, cfg.engine);
  qry::QueryEngine qe(runtime.store());
  std::thread reader([&] {
    const qry::QuerySpec spec = qry::QueryBuilder()
                                    .select("*/*")
                                    .range(0.0, span)
                                    .align(span / 256.0)
                                    .aggregate(qry::Aggregation::kMax)
                                    .build();
    while (!stop.load()) {
      const auto r = qe.run(spec);
      ASSERT_NE(r.result, nullptr);
      ++queries;
    }
  });

  std::size_t guard = 0;
  while (!runtime.done() && ++guard < 10'000) runtime.step();
  stop.store(true);
  reader.join();
  EXPECT_TRUE(runtime.done());
  EXPECT_GT(queries.load(), 0u);
}

// ------------------------------------------------- durable checkpointing --

TEST(Runtime, IncrementalCheckpointsLeaveRecoverableState) {
  const tel::Fleet fleet = small_fleet(12, 3);
  TempDir dir("checkpoint");

  rt::VirtualClock clock;
  rt::RuntimeConfig cfg;
  cfg.engine = small_engine_config();
  cfg.engine.storage.dir = dir.path;
  cfg.checkpoint_interval_windows = 8;  // several mid-run checkpoints
  rt::StreamingRuntime runtime(fleet, clock, cfg);

  const eng::FleetRunResult result = runtime.run_to_completion();
  EXPECT_TRUE(result.persisted);
  EXPECT_GT(runtime.stats().checkpoints, 1u);  // interval + final

  // Cold-start recovery must reproduce the live store bit-exactly.
  sto::StorageConfig attach;
  attach.dir = dir.path;
  sto::StorageManager manager(attach);
  mon::StoreConfig store_cfg = cfg.engine.store;
  ASSERT_TRUE(manager.manifest_geometry().has_value());
  manager.manifest_geometry()->apply(store_cfg);
  mon::StripedRetentionStore recovered(store_cfg, cfg.engine.store_stripes);
  const sto::RecoveryStats rec = manager.recover(recovered);
  EXPECT_EQ(rec.crc_skipped_blocks, 0u);
  EXPECT_EQ(rec.stale_streams, 0u);

  const auto names = runtime.store().stream_names();
  ASSERT_EQ(names, recovered.stream_names());
  const mon::ReadSnapshot live = runtime.store().acquire_snapshot();
  const mon::ReadSnapshot cold = recovered.acquire_snapshot();
  for (const auto& name : names) {
    const auto meta = live.find_meta(name).value();
    const auto live_q = live.query(name, meta.t0, meta.t_end);
    const auto cold_q = cold.query(name, meta.t0, meta.t_end);
    EXPECT_TRUE(same_values(live_q.span(), cold_q.span())) << name;
  }
}

}  // namespace
