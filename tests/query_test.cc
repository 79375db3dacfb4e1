// The fleet query & serving subsystem: glob selectors, grid alignment vs
// the direct store read path, transforms, cross-stream aggregation, the
// sharded result cache (hits, generation invalidation, eviction), and the
// determinism contract (bit-identical results for any per-query worker
// count and cache-cold vs cache-warm), including selector pruning over a
// paper-scale engine run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "monitor/striped_store.h"
#include "query/builder.h"
#include "query/cache.h"
#include "query/engine.h"
#include "query/selector.h"
#include "query/spec.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "telemetry/fleet.h"

namespace {

using namespace nyqmon;

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ------------------------------------------------------------- selector --

TEST(Selector, GlobMatching) {
  EXPECT_TRUE(qry::match_glob("rack3-*/temperature", "rack3-a/temperature"));
  EXPECT_TRUE(qry::match_glob("rack3-*/temperature", "rack3-/temperature"));
  EXPECT_FALSE(qry::match_glob("rack3-*/temperature", "rack4-a/temperature"));
  EXPECT_TRUE(qry::match_glob("*", "anything/at/all"));
  EXPECT_TRUE(qry::match_glob("*/drops", "pod1/rack2/tor/drops"));
  EXPECT_FALSE(qry::match_glob("*/drops", "pod1/rack2/tor/dropped"));
  EXPECT_TRUE(qry::match_glob("pod?/agg1", "pod3/agg1"));
  EXPECT_FALSE(qry::match_glob("pod?/agg1", "pod31/agg1"));
  EXPECT_TRUE(qry::match_glob("a*b*c", "a-x-b-y-c"));
  EXPECT_FALSE(qry::match_glob("a*b*c", "a-x-c-y-b"));
  EXPECT_TRUE(qry::match_glob("", ""));
  EXPECT_FALSE(qry::match_glob("", "x"));
  EXPECT_TRUE(qry::match_glob("**", "x"));
  EXPECT_TRUE(qry::match_glob("exact/name", "exact/name"));
  EXPECT_FALSE(qry::match_glob("exact/name", "exact/name2"));
}

TEST(Selector, IsExact) {
  EXPECT_TRUE(qry::is_exact("pod1/rack2/tor/drops"));
  EXPECT_FALSE(qry::is_exact("pod1/*"));
  EXPECT_FALSE(qry::is_exact("pod?/x"));
}

// ----------------------------------------------------------------- spec --

TEST(Spec, ValidationAndGrid) {
  qry::QuerySpec spec;
  spec.selector = "*";
  spec.t_begin = 0.0;
  spec.t_end = 10.0;
  spec.step_s = 1.0;
  EXPECT_NO_THROW(spec.validate());
  EXPECT_EQ(spec.grid_points(), 10u);  // half-open: t=10 excluded

  spec.step_s = 3.0;
  EXPECT_EQ(spec.grid_points(), 4u);  // 0, 3, 6, 9

  qry::QuerySpec bad = spec;
  bad.selector.clear();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = spec;
  bad.t_end = bad.t_begin;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.t_end = bad.t_begin - 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = spec;
  bad.step_s = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(Builder, ProducesCanonicalSpec) {
  // A built spec and a hand-filled spec with the same fields are the same
  // cache entry: identical canonical keys.
  qry::QuerySpec raw;
  raw.selector = "rack*/cpu_util";
  raw.t_begin = 5.0;
  raw.t_end = 65.0;
  raw.step_s = 0.5;
  raw.transform = qry::Transform::kRate;
  raw.aggregate = qry::Aggregation::kP95;

  const qry::QuerySpec built = qry::QueryBuilder()
                                   .select("rack*/cpu_util")
                                   .range(5.0, 65.0)
                                   .align(0.5)
                                   .transform(qry::Transform::kRate)
                                   .aggregate(qry::Aggregation::kP95)
                                   .build();
  EXPECT_EQ(built.canonical_key(), raw.canonical_key());

  // Defaults match a default-constructed spec's fields.
  const qry::QuerySpec plain =
      qry::QueryBuilder().select("*").range(0.0, 10.0).align(1.0).build();
  EXPECT_EQ(plain.transform, qry::Transform::kRaw);
  EXPECT_EQ(plain.aggregate, qry::Aggregation::kNone);
}

TEST(Builder, BuildValidates) {
  // build() funnels through QuerySpec::validate(): missing selector,
  // empty range, and zero step all throw rather than producing a spec.
  EXPECT_THROW(qry::QueryBuilder().range(0.0, 1.0).align(0.1).build(),
               std::invalid_argument);
  EXPECT_THROW(qry::QueryBuilder().select("*").align(0.1).build(),
               std::invalid_argument);
  EXPECT_THROW(qry::QueryBuilder().select("*").range(0.0, 1.0).build(),
               std::invalid_argument);
}

TEST(Spec, CanonicalKeyDistinguishesStructure) {
  qry::QuerySpec a;
  a.selector = "*";
  a.t_begin = 0.0;
  a.t_end = 10.0;
  a.step_s = 1.0;
  qry::QuerySpec b = a;
  EXPECT_EQ(a.canonical_key(), b.canonical_key());
  b.t_end = 20.0;
  EXPECT_NE(a.canonical_key(), b.canonical_key());
  b = a;
  b.transform = qry::Transform::kRate;
  EXPECT_NE(a.canonical_key(), b.canonical_key());
  b = a;
  b.aggregate = qry::Aggregation::kP95;
  EXPECT_NE(a.canonical_key(), b.canonical_key());
}

// ------------------------------------------------------------ alignment --

mon::StripedRetentionStore make_store_with(
    const std::vector<std::pair<std::string, double>>& streams,
    std::size_t samples) {
  mon::StoreConfig cfg;
  cfg.chunk_samples = 64;
  mon::StripedRetentionStore store(cfg, 4);
  for (const auto& [name, rate] : streams) {
    store.create_stream(name, rate);
    std::vector<double> values(samples);
    for (std::size_t i = 0; i < samples; ++i)
      values[i] = std::sin(0.01 * static_cast<double>(i)) + 2.0;
    store.append_series(name, values);
  }
  return store;
}

TEST(QueryEngine, AlignmentMatchesDirectStoreQuery) {
  // step == the stream's collection interval, raw, no aggregation: the
  // engine's aligned output must reproduce the store's own read path.
  auto store = make_store_with({{"dev/a", 1.0}}, 300);
  qry::QueryEngine qe(store);

  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("dev/a")
                                  .range(10.0, 200.0)
                                  .align(1.0)
                                  .build();
  const auto r = qe.run(spec);
  ASSERT_EQ(r.result->series.size(), 1u);
  const auto& got = r.result->series[0].series;
  const auto want = store.acquire_snapshot().query("dev/a", 10.0, 200.0);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-9) << i;
}

TEST(QueryEngine, CoarserGridInterpolates) {
  auto store = make_store_with({{"dev/a", 1.0}}, 300);
  qry::QueryEngine qe(store);
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("dev/a")
                                  .range(0.0, 100.0)
                                  .align(10.0)  // 10x coarser than collection
                                  .build();
  const auto r = qe.run(spec);
  ASSERT_EQ(r.result->series.size(), 1u);
  const auto& got = r.result->series[0].series;
  ASSERT_EQ(got.size(), 10u);
  EXPECT_DOUBLE_EQ(got.t0(), 0.0);
  EXPECT_DOUBLE_EQ(got.dt(), 10.0);
  const auto base = store.acquire_snapshot().query("dev/a", 0.0, 100.0);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], base[i * 10], 1e-9) << i;
}

// ----------------------------------------------- transforms + aggregates --

mon::StripedRetentionStore make_constant_store(
    const std::vector<std::pair<std::string, double>>& level_of) {
  mon::StripedRetentionStore store({}, 4);
  for (const auto& [name, level] : level_of) {
    store.create_stream(name, 1.0);
    std::vector<double> values(100, level);
    store.append_series(name, values);
  }
  return store;
}

qry::QuerySpec agg_spec(qry::Aggregation agg, std::string selector = "*") {
  return qry::QueryBuilder()
      .select(std::move(selector))
      .range(0.0, 50.0)
      .align(1.0)
      .aggregate(agg)
      .build();
}

TEST(QueryEngine, AggregationValues) {
  auto store =
      make_constant_store({{"a/m", 1.0}, {"b/m", 2.0}, {"c/m", 6.0}});
  qry::QueryEngine qe(store);

  const auto check = [&](qry::Aggregation agg, double want) {
    const auto r = qe.run(agg_spec(agg));
    ASSERT_EQ(r.result->series.size(), 1u);
    const auto& s = r.result->series[0].series;
    ASSERT_EQ(s.size(), 50u);
    for (std::size_t i = 0; i < s.size(); ++i)
      EXPECT_NEAR(s[i], want, 1e-12)
          << qry::to_string(agg) << " at " << i;
  };
  check(qry::Aggregation::kSum, 9.0);
  check(qry::Aggregation::kAvg, 3.0);
  check(qry::Aggregation::kMin, 1.0);
  check(qry::Aggregation::kMax, 6.0);
  check(qry::Aggregation::kP50, 2.0);

  const auto r = qe.run(agg_spec(qry::Aggregation::kSum));
  EXPECT_EQ(r.result->series[0].label, "sum(*)");
  EXPECT_EQ(r.result->matched,
            (std::vector<std::string>{"a/m", "b/m", "c/m"}));
}

TEST(QueryEngine, RateTransformOfRamp) {
  mon::StripedRetentionStore store({}, 2);
  store.create_stream("dev/ctr", 1.0);
  std::vector<double> ramp(200);
  for (std::size_t i = 0; i < ramp.size(); ++i)
    ramp[i] = 3.0 * static_cast<double>(i);  // slope 3 per second
  store.append_series("dev/ctr", ramp);

  qry::QueryEngine qe(store);
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("dev/ctr")
                                  .range(0.0, 100.0)
                                  .align(1.0)
                                  .transform(qry::Transform::kRate)
                                  .build();
  const auto r = qe.run(spec);
  const auto& s = r.result->series[0].series;
  ASSERT_EQ(s.size(), 100u);
  EXPECT_DOUBLE_EQ(s[0], 0.0);  // no left neighbour by definition
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_NEAR(s[i], 3.0, 1e-9);
}

TEST(QueryEngine, ZScoreTransform) {
  auto store = make_store_with({{"dev/a", 1.0}}, 300);
  qry::QueryEngine qe(store);
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("dev/a")
                                  .range(0.0, 250.0)
                                  .align(1.0)
                                  .transform(qry::Transform::kZScore)
                                  .build();
  const auto r = qe.run(spec);
  const auto& v = r.result->series[0].series.values();
  double sum = 0.0, sq = 0.0;
  for (const double x : v) {
    sum += x;
    sq += x * x;
  }
  const double n = static_cast<double>(v.size());
  EXPECT_NEAR(sum / n, 0.0, 1e-9);
  EXPECT_NEAR(sq / n, 1.0, 1e-9);

  // A flat window has no scale: z-score is defined as all zeros.
  auto flat = make_constant_store({{"f/m", 5.0}});
  qry::QueryEngine qf(flat);
  const auto rf = qf.run(qry::QueryBuilder()
                             .select("f/m")
                             .range(0.0, 50.0)
                             .align(1.0)
                             .transform(qry::Transform::kZScore)
                             .build());
  for (const double x : rf.result->series[0].series.values())
    EXPECT_DOUBLE_EQ(x, 0.0);
}

// ------------------------------------------------------- cache semantics --

TEST(QueryEngine, CacheHitThenGenerationInvalidation) {
  auto store = make_constant_store({{"a/m", 1.0}, {"b/m", 2.0}});
  qry::QueryEngine qe(store);
  const auto spec = agg_spec(qry::Aggregation::kAvg);

  const auto cold = qe.run(spec);
  EXPECT_FALSE(cold.cache_hit);
  const auto warm = qe.run(spec);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(cold.result.get(), warm.result.get());  // the same shared result

  // Ingest into a matched stream: the write-generation fingerprint changes
  // and the cached entry must not be served again. The appended sample
  // lands past the queried range, so the values coincide — the point is
  // that a fresh result was computed rather than the stale entry served.
  store.append_series("a/m", std::vector<double>{100.0});
  const auto after = qe.run(spec);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_NE(after.result.get(), cold.result.get());
  EXPECT_EQ(after.result->series[0].series.values(),
            cold.result->series[0].series.values());

  const auto stats = qe.stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.invalidations, 1u);
}

TEST(QueryEngine, IngestOutsideSelectorKeepsCacheWarm) {
  auto store = make_constant_store({{"a/m", 1.0}, {"zz/other", 9.0}});
  qry::QueryEngine qe(store);
  const auto spec = agg_spec(qry::Aggregation::kAvg, "a/*");
  (void)qe.run(spec);
  // Not matched: the fingerprint is unchanged.
  store.append_series("zz/other", std::vector<double>{1.0});
  EXPECT_TRUE(qe.run(spec).cache_hit);
}

TEST(QueryEngine, CacheDisabled) {
  auto store = make_constant_store({{"a/m", 1.0}});
  qry::QueryEngineConfig cfg;
  cfg.cache_enabled = false;
  qry::QueryEngine qe(store, cfg);
  const auto spec = agg_spec(qry::Aggregation::kAvg);
  EXPECT_FALSE(qe.run(spec).cache_hit);
  EXPECT_FALSE(qe.run(spec).cache_hit);
  EXPECT_EQ(qe.stats().cache.hits, 0u);
}

TEST(QueryEngine, ExplainStagesSumToTotal) {
  // One clock times the whole call, so EXPLAIN's stages account for every
  // nanosecond of total_ns, on a miss and on a hit alike.
  auto store = make_constant_store({{"a/m", 1.0}, {"b/m", 2.0}});
  qry::QueryEngine qe(store);
  const auto spec = agg_spec(qry::Aggregation::kAvg);
  const auto stage_sum = [](const qry::QueryResponse& r) {
    std::uint64_t ns = 0;
    for (const auto& s : r.stages) ns += s.ns;
    return ns;
  };

  const auto miss = qe.run(spec);
  ASSERT_FALSE(miss.cache_hit);
  ASSERT_EQ(miss.stages.size(), 7u);
  EXPECT_STREQ(miss.stages.front().stage, "match");
  EXPECT_STREQ(miss.stages.back().stage, "cache_store");
  EXPECT_EQ(stage_sum(miss), miss.total_ns);

  const auto hit = qe.run(spec);
  ASSERT_TRUE(hit.cache_hit);
  ASSERT_EQ(hit.stages.size(), 2u);
  EXPECT_STREQ(hit.stages.back().stage, "cache");
  EXPECT_EQ(stage_sum(hit), hit.total_ns);
}

TEST(ResultCache, LruEviction) {
  qry::ShardedResultCache cache(/*capacity=*/2, /*shards=*/1);
  auto value = std::make_shared<const qry::QueryResult>();
  cache.insert("a", 1, value);
  cache.insert("b", 1, value);
  EXPECT_NE(cache.lookup("a", 1), nullptr);  // refreshes "a"
  cache.insert("c", 1, value);               // evicts LRU "b"
  EXPECT_EQ(cache.lookup("b", 1), nullptr);
  EXPECT_NE(cache.lookup("a", 1), nullptr);
  EXPECT_NE(cache.lookup("c", 1), nullptr);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

// ------------------------------------------- edges, pruning, determinism --

TEST(QueryEngine, UnmatchedSelectorIsEmptyNotError) {
  auto store = make_constant_store({{"a/m", 1.0}});
  qry::QueryEngine qe(store);
  const auto spec = agg_spec(qry::Aggregation::kAvg, "nothing/*");
  const auto r = qe.run(spec);
  EXPECT_TRUE(r.result->matched.empty());
  EXPECT_TRUE(r.result->series.empty());
}

TEST(QueryEngine, RangePruneSkipsStreamsWithoutOverlap) {
  // "late" starts at t=1000: a [0, 50) query must prune it on metadata
  // alone and aggregate over the live stream only.
  mon::StripedRetentionStore store({}, 2);
  store.create_stream("a/m", 1.0, /*t0=*/0.0);
  store.create_stream("late/m", 1.0, /*t0=*/1000.0);
  store.append_series("a/m", std::vector<double>(100, 7.0));
  store.append_series("late/m", std::vector<double>(100, 9.0));

  qry::QueryEngine qe(store);
  const auto r = qe.run(agg_spec(qry::Aggregation::kAvg));
  EXPECT_EQ(r.result->matched.size(), 2u);
  EXPECT_EQ(r.result->reconstructed,
            (std::vector<std::string>{"a/m"}));
  for (const double x : r.result->series[0].series.values())
    EXPECT_NEAR(x, 7.0, 1e-12);
  const auto stats = qe.stats();
  EXPECT_EQ(stats.streams_pruned, 1u);
  EXPECT_EQ(stats.streams_reconstructed, 1u);
}

TEST(QueryEngine, SubStepWindowHoldsSlowStreamValueNotZeros) {
  // A 3-minute poller queried over a 60 s window: the store's collection
  // grid rounds to zero points, but the engine must hold the stream's
  // nearest retained value rather than aggregate fabricated zeros.
  mon::StripedRetentionStore store({}, 2);
  store.create_stream("fast/m", 1.0);
  store.create_stream("slow/m", 1.0 / 180.0);
  store.append_series("fast/m", std::vector<double>(300, 5.0));
  store.append_series("slow/m", std::vector<double>(40, 9.0));

  qry::QueryEngine qe(store);
  const auto r = qe.run(qry::QueryBuilder()
                            .select("*")
                            .range(0.0, 60.0)
                            .align(1.0)
                            .aggregate(qry::Aggregation::kMin)
                            .build());
  EXPECT_EQ(r.result->reconstructed.size(), 2u);
  ASSERT_EQ(r.result->series.size(), 1u);
  for (const double v : r.result->series[0].series.values())
    EXPECT_NEAR(v, 5.0, 1e-9);  // min(5, 9), never min(5, 0)
}

TEST(QueryEngine, ExactSelectorFastPathSkipsFleetScan) {
  auto store = make_constant_store({{"a/m", 1.0}, {"b/m", 2.0}});
  qry::QueryEngine qe(store);
  // Wildcard-free: a direct stripe lookup.
  const auto r = qe.run(agg_spec(qry::Aggregation::kAvg, "a/m"));
  EXPECT_EQ(r.result->matched, (std::vector<std::string>{"a/m"}));
  EXPECT_EQ(qe.stats().streams_considered, 1u);  // not the fleet's 2

  const auto missing = qe.run(agg_spec(qry::Aggregation::kAvg, "nope/m"));
  EXPECT_TRUE(missing.result->matched.empty());
}

TEST(QueryEngine, FleetScaleSelectorPruningAndDeterminism) {
  // The acceptance scenario: a >= 500-pair fleet run, a glob selector
  // over one metric, and the contract that (a) only matched streams are
  // reconstructed (pruning observable via stats) and (b) results are
  // bit-identical across per-query worker counts and cache temperature.
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 500;
  fleet_cfg.seed = 99;
  const tel::Fleet fleet(fleet_cfg);
  ASSERT_GE(fleet.size(), 500u);

  rt::RuntimeConfig cfg;
  cfg.engine.workers = 4;
  cfg.engine.samples_per_window = 48;
  cfg.engine.windows_per_pair = 4;
  rt::VirtualClock clock;
  rt::StreamingRuntime runtime(fleet, clock, cfg);
  (void)runtime.run_to_completion();

  const qry::QuerySpec spec =
      qry::QueryBuilder()
          .select("*/" + tel::metric_name(tel::MetricKind::kTemperature))
          .range(0.0, 3600.0)
          .align(60.0)
          .aggregate(qry::Aggregation::kP95)
          .build();

  auto run_with_workers = [&](std::size_t workers) {
    qry::QueryEngineConfig qcfg;
    qcfg.workers = workers;
    qry::QueryEngine qe(runtime.store(), qcfg);
    const auto first = qe.run(spec);
    EXPECT_FALSE(first.cache_hit);
    const auto second = qe.run(spec);  // cache-warm
    EXPECT_TRUE(second.cache_hit);

    // Warm result is the same bits as cold.
    const auto& a = first.result->series.at(0).series;
    const auto& b = second.result->series.at(0).series;
    EXPECT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_TRUE(same_bits(a[i], b[i])) << i;

    // Pruning: the matched set is a strict subset of the fleet, and only
    // it was reconstructed.
    const auto stats = qe.stats();
    EXPECT_GT(stats.streams_matched, 0u);
    EXPECT_LT(stats.streams_matched, runtime.store().streams());
    EXPECT_EQ(stats.streams_reconstructed + stats.streams_pruned,
              stats.streams_matched);
    EXPECT_EQ(first.result->matched.size(), stats.streams_matched);
    return first;
  };

  const auto serial = run_with_workers(1);
  const auto parallel = run_with_workers(8);

  // Bit-identical across per-query worker counts.
  ASSERT_EQ(serial.result->series.size(), 1u);
  ASSERT_EQ(parallel.result->series.size(), 1u);
  const auto& a = serial.result->series[0].series;
  const auto& b = parallel.result->series[0].series;
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(same_bits(a[i], b[i])) << i;
  EXPECT_EQ(serial.result->matched, parallel.result->matched);
  EXPECT_EQ(serial.result->reconstructed, parallel.result->reconstructed);
}

}  // namespace
