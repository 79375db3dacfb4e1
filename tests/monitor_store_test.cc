// The retention store (the paper's a-posteriori policy: collect fast, store
// at the Nyquist rate) and RatePriorStore (warm-starting from fleet
// history).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "monitor/rate_prior.h"
#include "monitor/store.h"
#include "monitor/striped_store.h"
#include "obs/metrics.h"
#include "reconstruct/error.h"
#include "signal/generators.h"
#include "signal/source.h"
#include "util/rng.h"

namespace {

using nyqmon::Rng;
using namespace nyqmon;
using mon::RatePriorStore;
using mon::StoreConfig;
using mon::StripedRetentionStore;

/// f(0), ..., f(n - 1): n readings to append as one batch.
template <typename F>
std::vector<double> readings(int n, F f) {
  std::vector<double> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) out.push_back(f(i));
  return out;
}

/// The ramp 0, 1, ..., n - 1.
std::vector<double> ramp(int n) {
  return readings(n, [](int i) { return double(i); });
}

TEST(Store, CreateAppendQuery) {
  StripedRetentionStore store;
  store.create_stream("tor1/temp", 1.0 / 30.0);
  store.append_series("tor1/temp", std::vector<double>(100, 42.0));
  const auto series =
      store.acquire_snapshot().query("tor1/temp", 0.0, 100.0 * 30.0);
  EXPECT_EQ(series.size(), 100u);
  for (double v : series.values()) EXPECT_NEAR(v, 42.0, 1e-9);
}

TEST(Store, DuplicateStreamThrows) {
  StripedRetentionStore store;
  store.create_stream("s", 1.0);
  EXPECT_THROW(store.create_stream("s", 1.0), std::invalid_argument);
}

TEST(Store, EmptyStreamReductionIsOne) {
  // reduction() must guard both counters: streams reached through the
  // store always have ingested >= stored, but StreamStats is a public
  // value type, and a hand-built {ingested: 0, stored: n} used to report a
  // nonsense 0.0 "reduction" instead of the neutral 1.0.
  mon::StreamStats empty;
  EXPECT_DOUBLE_EQ(empty.reduction(), 1.0);

  mon::StreamStats ghost;
  ghost.stored_samples = 5;  // nothing ingested: reduction is undefined
  EXPECT_DOUBLE_EQ(ghost.reduction(), 1.0);

  StripedRetentionStore store;
  store.create_stream("idle", 1.0);
  EXPECT_DOUBLE_EQ(store.stats("idle").reduction(), 1.0);

  // Ingested-but-nothing-sealed must not report ingested/0 either.
  store.append_series("idle", std::vector<double>{1.0});
  EXPECT_EQ(store.stats("idle").ingested_samples, 1u);
  EXPECT_EQ(store.stats("idle").stored_samples, 0u);
  EXPECT_DOUBLE_EQ(store.stats("idle").reduction(), 1.0);

  mon::StoreRollup rollup;
  EXPECT_DOUBLE_EQ(rollup.reduction(), 1.0);
}

TEST(Store, UnknownStreamThrows) {
  StripedRetentionStore store;
  EXPECT_THROW(store.append_series("nope", std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)store.acquire_snapshot().query("nope", 0.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW((void)store.stats("nope"), std::invalid_argument);
}

TEST(Store, SealedChunksShrinkOversampledStreams) {
  // A slow tone collected at 1 Hz (heavily oversampled): sealed chunks must
  // be stored with far fewer samples than were ingested.
  const sig::SumOfSines tone({{0.002, 5.0, 0.0}}, /*dc=*/50.0);
  StoreConfig cfg;
  cfg.chunk_samples = 1024;
  StripedRetentionStore store(cfg);
  store.create_stream("link", 1.0);
  store.append_series("link",
                      readings(4096, [&](int i) { return tone.value(i); }));

  const auto stats = store.stats("link");
  EXPECT_EQ(stats.ingested_samples, 4096u);
  EXPECT_EQ(stats.chunks, 4u);
  EXPECT_EQ(stats.chunks_reduced, 4u);
  EXPECT_GT(stats.reduction(), 10.0);
}

TEST(Store, QueryReconstructsSealedData) {
  const sig::SumOfSines tone({{0.002, 5.0, 0.0}}, 50.0);
  StoreConfig cfg;
  cfg.chunk_samples = 1024;
  StripedRetentionStore store(cfg);
  store.create_stream("link", 1.0);
  store.append_series("link",
                      readings(2048, [&](int i) { return tone.value(i); }));

  // Query the first sealed chunk's interior and compare with ground truth.
  const auto series = store.acquire_snapshot().query("link", 100.0, 900.0);
  std::vector<double> truth;
  for (std::size_t i = 0; i < series.size(); ++i)
    truth.push_back(tone.value(series.time_at(i)));
  EXPECT_LT(rec::nrmse(truth, series.values()), 0.05);
}

TEST(Store, HotTailServedRaw) {
  StripedRetentionStore store;  // default chunk 512
  store.create_stream("s", 1.0);
  store.append_series("s", ramp(100));  // unsealed
  const auto series = store.acquire_snapshot().query("s", 0.0, 100.0);
  for (std::size_t i = 0; i < series.size(); ++i)
    EXPECT_DOUBLE_EQ(series[i], double(i));
}

TEST(Store, BroadbandChunksKeptAtFullRate) {
  // White-ish readings (a stressed counter): the estimator reports aliased
  // or near-rate, so the store must keep the raw resolution.
  Rng rng(55);
  StoreConfig cfg;
  cfg.chunk_samples = 512;
  StripedRetentionStore store(cfg);
  store.create_stream("drops", 1.0);
  store.append_series(
      "drops", readings(1024, [&](int) { return rng.normal(0.0, 1.0); }));
  const auto stats = store.stats("drops");
  EXPECT_EQ(stats.chunks, 2u);
  EXPECT_LT(stats.reduction(), 1.5);
}

TEST(Store, StorageCostReflectsReduction) {
  const sig::SumOfSines tone({{0.002, 5.0, 0.0}}, 50.0);
  StoreConfig cfg;
  cfg.chunk_samples = 512;

  StripedRetentionStore reduced(cfg);
  reduced.create_stream("s", 1.0);
  const auto values = readings(2048, [&](int i) { return tone.value(i); });
  reduced.append_series("s", values);

  // The same data in a store with (effectively) no chunk sealing yet.
  StoreConfig raw_cfg;
  raw_cfg.chunk_samples = 1 << 20;  // effectively never seals
  StripedRetentionStore raw(raw_cfg);
  raw.create_stream("s", 1.0);
  raw.append_series("s", values);

  EXPECT_LT(reduced.rollup().bytes_stored, raw.rollup().bytes_stored / 2.0);
}

TEST(Store, EmptyAndInvertedRangesClampToEmptySeries) {
  // Half-open [t_begin, t_end): inverted or empty ranges are defined to
  // return an empty series on the collection grid, not to throw or to fall
  // through reconstruction.
  StripedRetentionStore store;
  store.create_stream("s", 2.0);
  store.append_series("s", ramp(50));

  const std::vector<std::pair<double, double>> ranges = {
      {5.0, 5.0}, {9.0, 3.0}, {0.0, -1.0}};
  for (const auto& [b, e] : ranges) {
    const auto series = store.acquire_snapshot().query("s", b, e);
    EXPECT_EQ(series.size(), 0u) << b << ".." << e;
    EXPECT_DOUBLE_EQ(series.t0(), b);
    EXPECT_DOUBLE_EQ(series.dt(), 0.5);  // collection grid survives
  }
  // A span shorter than half a grid step rounds to zero points.
  EXPECT_EQ(store.acquire_snapshot().query("s", 1.0, 1.2).size(), 0u);
}

TEST(Store, QueryEntirelyInsideHotTail) {
  // Two sealed chunks plus an unsealed tail; a query window living wholly
  // in the tail must serve the raw (unsealed) values exactly.
  StoreConfig cfg;
  cfg.chunk_samples = 64;
  StripedRetentionStore store(cfg);
  store.create_stream("s", 1.0);
  store.append_series("s", ramp(150));  // 128 sealed

  const auto series = store.acquire_snapshot().query("s", 130.0, 148.0);
  ASSERT_EQ(series.size(), 18u);
  for (std::size_t i = 0; i < series.size(); ++i)
    EXPECT_DOUBLE_EQ(series[i], 130.0 + double(i));
}

TEST(Store, QuerySpansSealedHotBoundary) {
  // A constant stream sealed at chunk 64: values must come back constant
  // across the sealed-chunk / hot-tail seam, with no discontinuity.
  StoreConfig cfg;
  cfg.chunk_samples = 64;
  StripedRetentionStore store(cfg);
  store.create_stream("s", 1.0);
  store.append_series("s", std::vector<double>(100, 5.0));

  // 64 is the seam.
  const auto series = store.acquire_snapshot().query("s", 50.0, 90.0);
  ASSERT_EQ(series.size(), 40u);
  for (std::size_t i = 0; i < series.size(); ++i)
    EXPECT_NEAR(series[i], 5.0, 1e-6) << i;
}

TEST(Store, QueryPastEndOfDataHoldsLastValue) {
  StripedRetentionStore store;
  store.create_stream("s", 1.0);
  store.append_series("s", ramp(10));

  // Data ends at t=10.
  const auto series = store.acquire_snapshot().query("s", 5.0, 20.0);
  ASSERT_EQ(series.size(), 15u);
  EXPECT_DOUBLE_EQ(series[0], 5.0);
  for (std::size_t i = 5; i < series.size(); ++i)
    EXPECT_DOUBLE_EQ(series[i], 9.0) << i;  // hold the nearest stored value

  // Entirely past the end: still defined, still held.
  const auto beyond = store.acquire_snapshot().query("s", 100.0, 105.0);
  ASSERT_EQ(beyond.size(), 5u);
  for (const double v : beyond.values()) EXPECT_DOUBLE_EQ(v, 9.0);
}

TEST(Store, QueryBeforeDataHoldsFirstValue) {
  StripedRetentionStore store;
  store.create_stream("s", 1.0, /*t0=*/100.0);
  store.append_series("s", ramp(10));  // [100, 110)

  // Entirely before the data: hold the first stored value.
  const auto before = store.acquire_snapshot().query("s", 80.0, 85.0);
  ASSERT_EQ(before.size(), 5u);
  for (const double v : before.values()) EXPECT_DOUBLE_EQ(v, 0.0);

  // t_end barely overlaps the data start but every actual grid point lies
  // before it: still the first value (the hold is judged by the last grid
  // point, not t_end).
  const auto brushing = store.acquire_snapshot().query("s", 95.0, 100.4);
  ASSERT_EQ(brushing.size(), 5u);  // t = 95..99
  for (const double v : brushing.values()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Store, EpochScaleOriginReadsBackEveryValue) {
  // A stream stamped with Unix time, as an INGEST client would stamp it:
  // at t0 = 1.7e9 s one ULP is 2.4e-7 s, yet every raw value must read back
  // at its own grid point, exactly as from t0 = 0.
  for (const double rate : {1.0, 10.0, 1e3, 1e4}) {
    for (const double t0 : {0.0, 1.7e9}) {
      Rng rng(29);
      const auto values =
          readings(100, [&](int) { return rng.normal(0.0, 1.0); });
      StoreConfig cfg;
      cfg.chunk_samples = 32;  // three sealed chunks and a hot tail
      StripedRetentionStore store(cfg);
      store.create_stream("s", rate, t0);
      store.append_series("s", values);
      ASSERT_EQ(store.stats("s").chunks_reduced, 0u);  // kept raw
      const auto series =
          store.acquire_snapshot().query("s", t0, t0 + 100.0 / rate);
      ASSERT_EQ(series.size(), values.size());
      for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(series[i], values[i])
            << "rate " << rate << " Hz, t0 " << t0 << ", value " << i;
    }
  }
}

TEST(Store, MetaTracksSpanAndGeneration) {
  StripedRetentionStore store;
  store.create_stream("s", 2.0, /*t0=*/100.0);
  auto m = store.find_meta("s").value();
  EXPECT_DOUBLE_EQ(m.collection_rate_hz, 2.0);
  EXPECT_DOUBLE_EQ(m.t0, 100.0);
  EXPECT_DOUBLE_EQ(m.t_end, 100.0);  // half-open, nothing ingested
  EXPECT_EQ(m.generation, 0u);
  EXPECT_EQ(m.ingested_samples, 0u);

  store.append_series("s", std::vector<double>{1.0});
  m = store.find_meta("s").value();
  EXPECT_EQ(m.generation, 1u);
  EXPECT_EQ(m.ingested_samples, 1u);
  EXPECT_DOUBLE_EQ(m.t_end, 100.5);

  // One bulk append = one generation bump; an empty batch bumps nothing.
  store.append_series("s", std::vector<double>(99, 2.0));
  store.append_series("s", {});
  m = store.find_meta("s").value();
  EXPECT_EQ(m.generation, 2u);
  EXPECT_EQ(m.ingested_samples, 100u);
  EXPECT_DOUBLE_EQ(m.t_end, 150.0);

  EXPECT_FALSE(store.find_meta("nope").has_value());
}

TEST(Store, EmptyBatchesCountNothing) {
  // nyqmond accepts INGEST frames with no values. An empty batch changes
  // no data, so it must neither bump the generation nor report cache churn.
  obs::Counter& appends =
      obs::Registry::instance().counter("nyqmon_store_appends_total");
  obs::Counter& bumps = obs::Registry::instance().counter(
      "nyqmon_store_generation_bumps_total");
  StripedRetentionStore store;
  store.create_stream("s", 1.0);
  const std::uint64_t appends0 = appends.value();
  const std::uint64_t bumps0 = bumps.value();

  store.append_series("s", {});
  EXPECT_EQ(store.create_or_append("s", 1.0, 0.0, {}), 0u);
  EXPECT_EQ(store.create_or_append("new", 1.0, 0.0, {}), 0u);
  EXPECT_EQ(appends.value(), appends0);
  EXPECT_EQ(bumps.value(), bumps0);
  EXPECT_EQ(store.find_meta("s").value().generation, 0u);
  EXPECT_EQ(store.find_meta("new").value().generation, 0u);

  // A non-empty batch moves each by one, through either entry point.
  store.append_series("s", std::vector<double>(3, 1.0));
  EXPECT_EQ(appends.value(), appends0 + 1);
  EXPECT_EQ(bumps.value(), bumps0 + 1);
  EXPECT_EQ(store.find_meta("s").value().generation, 1u);
  EXPECT_EQ(store.create_or_append("s", 1.0, 0.0, std::vector<double>{1.0}),
            4u);
  EXPECT_EQ(appends.value(), appends0 + 2);
  EXPECT_EQ(bumps.value(), bumps0 + 2);
  EXPECT_EQ(store.find_meta("s").value().generation, 2u);
}

TEST(StripedStore, MetaAndListMetaAcrossStripes) {
  mon::StripedRetentionStore store({}, 8);
  store.create_stream("b/y", 1.0);
  store.create_stream("a/x", 2.0);
  store.create_stream("c/z", 4.0);
  store.append_series("a/x", std::vector<double>(10, 1.0));

  const auto all = store.list_meta();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].first, "a/x");  // lexicographic across stripes
  EXPECT_EQ(all[1].first, "b/y");
  EXPECT_EQ(all[2].first, "c/z");
  EXPECT_EQ(all[0].second.generation, 1u);
  EXPECT_DOUBLE_EQ(all[0].second.t_end, 5.0);
  EXPECT_EQ(all[1].second.generation, 0u);

  EXPECT_EQ(store.find_meta("a/x").value().ingested_samples, 10u);
  EXPECT_FALSE(store.find_meta("nope").has_value());

  // Snapshot reads keep the clamped empty-range convention.
  EXPECT_EQ(store.acquire_snapshot().query("a/x", 7.0, 7.0).size(), 0u);
}

TEST(RatePriors, LearnFromAuditAndWarmStart) {
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 150;
  fleet_cfg.seed = 11;
  fleet_cfg.topology.pods = 2;
  const tel::Fleet fleet(fleet_cfg);
  const auto audit = mon::run_audit(fleet, mon::AuditConfig{});

  RatePriorStore priors;
  priors.learn_from(audit);
  EXPECT_GT(priors.metrics_known(), 8u);

  const auto temp = priors.prior(tel::MetricKind::kTemperature);
  ASSERT_TRUE(temp.has_value());
  EXPECT_GT(temp->observations, 0u);
  EXPECT_LE(temp->median_rate_hz, temp->p90_rate_hz);
  EXPECT_LE(temp->p90_rate_hz, temp->max_rate_hz);

  nyq::AdaptiveConfig base;
  base.initial_rate_hz = 1.0 / 300.0;
  base.min_rate_hz = 1e-6;
  base.max_rate_hz = 1.0;
  const auto warmed = priors.warm_start(tel::MetricKind::kTemperature, base);
  EXPECT_NEAR(warmed.initial_rate_hz,
              std::clamp(base.headroom * temp->p90_rate_hz, base.min_rate_hz,
                         base.max_rate_hz),
              1e-12);
}

TEST(RatePriors, NoPriorLeavesConfigUntouched) {
  RatePriorStore priors;
  EXPECT_FALSE(priors.prior(tel::MetricKind::kLinkUtil).has_value());
  nyq::AdaptiveConfig base;
  base.initial_rate_hz = 0.123;
  const auto cfg = priors.warm_start(tel::MetricKind::kLinkUtil, base);
  EXPECT_DOUBLE_EQ(cfg.initial_rate_hz, 0.123);
}

TEST(RatePriors, DirectObservations) {
  RatePriorStore priors;
  priors.observe(tel::MetricKind::kFcsErrors, 0.01);
  priors.observe(tel::MetricKind::kFcsErrors, 0.03);
  priors.observe(tel::MetricKind::kFcsErrors, 0.02);
  const auto p = priors.prior(tel::MetricKind::kFcsErrors);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->observations, 3u);
  EXPECT_DOUBLE_EQ(p->median_rate_hz, 0.02);
  EXPECT_DOUBLE_EQ(p->max_rate_hz, 0.03);
  EXPECT_THROW(priors.observe(tel::MetricKind::kFcsErrors, 0.0),
               std::invalid_argument);
}

// ------------------------------------------------ snapshot read path ------

// A snapshot must be a frozen, bit-identical view: equal to a fresh read
// at acquire time, and unchanged by any amount of later ingest, sealing,
// and cap eviction. Its captured references keep evicted chunks alive
// until it is destroyed, and no longer.
TEST(Snapshot, ReaderSurvivesSealEvictionAndReclaim) {
  StoreConfig cfg;
  cfg.chunk_samples = 64;
  cfg.max_chunks_per_stream = 2;
  StripedRetentionStore store(cfg);
  store.create_stream("s", 2.0);  // collection grid dt = 0.5 s
  store.append_series("s", readings(300, [](int i) {
                        return std::sin(0.05 * i) + 0.01 * (i % 7);
                      }));

  // 4 chunks sealed, the first 2 evicted by the cap.
  EXPECT_EQ(store.stats("s").chunks, 4u);  // cumulative seal count

  // Query the live window [sample 128, sample 300).
  const double t_begin = 128 * 0.5;
  const double t_end = 300 * 0.5;
  const sig::RegularSeries fresh =
      store.acquire_snapshot().query("s", t_begin, t_end);
  std::weak_ptr<const mon::SealedChunk> captured;
  {
    const mon::ReadSnapshot snap = store.acquire_snapshot();
    const sig::RegularSeries at_acquire = snap.query("s", t_begin, t_end);
    ASSERT_EQ(at_acquire.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i)
      EXPECT_EQ(at_acquire[i], fresh[i]) << i;  // bit-identical
    const mon::StreamView* view = snap.find("s");
    ASSERT_NE(view, nullptr);
    ASSERT_EQ(view->chunks_trimmed, 2u);
    captured = view->chunks.front();  // sealed chunk #2

    // Ingest on: more seals, more evictions, chunk #2 among them. The
    // snapshot's own reference is all that keeps it alive now.
    store.append_series(
        "s", readings(300, [](int i) { return std::cos(0.03 * (300 + i)); }));
    EXPECT_GT(store.acquire_snapshot().find("s")->chunks_trimmed, 2u);
    EXPECT_FALSE(captured.expired());

    // The snapshot still reads its frozen capture, bit-identically.
    const sig::RegularSeries after_churn = snap.query("s", t_begin, t_end);
    ASSERT_EQ(after_churn.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i)
      EXPECT_EQ(after_churn[i], fresh[i]) << i;
  }
  // Destroying the last snapshot that captured it frees the chunk.
  EXPECT_TRUE(captured.expired());
}

// Snapshots acquired after an eviction never saw the evicted chunk and
// must not delay its reclamation.
TEST(Snapshot, LateSnapshotDoesNotDelayReclaim) {
  StoreConfig cfg;
  cfg.chunk_samples = 32;
  cfg.max_chunks_per_stream = 1;
  StripedRetentionStore store(cfg);
  store.create_stream("s", 1.0);
  store.append_series("s", ramp(40));  // one chunk sealed

  std::optional<mon::ReadSnapshot> early = store.acquire_snapshot();
  const std::weak_ptr<const mon::SealedChunk> chunk =
      early->find("s")->chunks.front();
  store.append_series("s", ramp(100));  // evicts it

  // Only `early` holds the chunk: destroying it frees the chunk even
  // though `late` is still live.
  const mon::ReadSnapshot late = store.acquire_snapshot();
  EXPECT_EQ(late.find("s")->chunks_trimmed, 3u);
  EXPECT_FALSE(chunk.expired());
  early.reset();
  EXPECT_TRUE(chunk.expired());
}

// A snapshot holds only what it captured: a chunk evicted from another
// stream is freed at once, however long the snapshot lives.
TEST(Snapshot, SnapshotDoesNotDelayOtherStreamsEviction) {
  StoreConfig cfg;
  cfg.chunk_samples = 32;
  cfg.max_chunks_per_stream = 1;
  StripedRetentionStore store(cfg);
  store.create_stream("a", 1.0);
  store.create_stream("b", 1.0);
  store.append_series("a", ramp(40));
  store.append_series("b", ramp(40));  // one chunk sealed per stream

  const mon::ReadSnapshot snap_a =
      store.acquire_snapshot(std::vector<std::string>{"a"});
  const sig::RegularSeries before = snap_a.query("a", 0.0, 40.0);
  const std::weak_ptr<const mon::SealedChunk> b_chunk =
      store.acquire_snapshot(std::vector<std::string>{"b"})
          .find("b")
          ->chunks.front();
  ASSERT_FALSE(b_chunk.expired());

  store.append_series("b", ramp(64));  // evicts b's first chunk
  EXPECT_TRUE(b_chunk.expired());

  // The live snapshot of `a` is untouched by b's eviction.
  const sig::RegularSeries after = snap_a.query("a", 0.0, 40.0);
  EXPECT_EQ(after.values(), before.values());
}

TEST(Snapshot, StripedSnapshotMatchesLockedReads) {
  StoreConfig cfg;
  cfg.chunk_samples = 64;
  mon::StripedRetentionStore store(cfg, 4);
  std::vector<std::string> names;
  for (int s = 0; s < 10; ++s) {
    names.push_back("dev" + std::to_string(s) + "/metric");
    store.create_stream(names.back(), 2.0);
    store.append_series(names.back(), readings(100 + 17 * s, [&](int i) {
                          return std::sin(0.1 * i + s);
                        }));
  }
  std::sort(names.begin(), names.end());

  const mon::ReadSnapshot snap = store.acquire_snapshot();
  EXPECT_EQ(snap.stream_names(), names);
  for (const auto& name : names) {
    const auto meta = snap.find_meta(name);
    ASSERT_TRUE(meta.has_value());
    const sig::RegularSeries fresh =
        store.acquire_snapshot().query(name, 0.0, meta->t_end);
    const sig::RegularSeries via_snap = snap.query(name, 0.0, meta->t_end);
    ASSERT_EQ(via_snap.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i)
      EXPECT_EQ(via_snap[i], fresh[i]) << name << " @" << i;
  }

  // Named capture: only the requested (existing) streams, sorted.
  const std::vector<std::string> want = {names[7], "nope/nothing", names[2]};
  const mon::ReadSnapshot sub = store.acquire_snapshot(want);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.stream_names(),
            (std::vector<std::string>{names[2], names[7]}));
  EXPECT_EQ(sub.find("nope/nothing"), nullptr);
  EXPECT_THROW((void)sub.query("nope/nothing", 0.0, 1.0),
               std::invalid_argument);
}

// Export skip accounting under the retention cap: skips are absolute chunk
// indexes, so a delta export must skip at least the trimmed prefix.
TEST(Snapshot, ExportAccountsForTrimmedChunks) {
  StoreConfig cfg;
  cfg.chunk_samples = 32;
  cfg.max_chunks_per_stream = 2;
  StripedRetentionStore store(cfg);
  store.create_stream("s", 1.0);
  store.append_series("s", ramp(150));  // 4 sealed
  const mon::ReadSnapshot snap = store.acquire_snapshot();
  const mon::StreamView* view = snap.find("s");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->chunks_trimmed, 2u);
  EXPECT_EQ(view->chunks.size(), 2u);

  // skip == trimmed exports the still-resident chunks; deeper skips are
  // valid deltas; skipping less than the trimmed prefix is unservable.
  EXPECT_EQ(snap.export_stream("s", 2).chunks.size(), 2u);
  EXPECT_EQ(snap.export_stream("s", 3).chunks.size(), 1u);
  EXPECT_THROW((void)snap.export_stream("s", 1), std::invalid_argument);
}

// restore_streams (HANDOFF import and recovery) takes only what this
// store's seal_chunk could have written. Each edit below makes one field of
// an exported snapshot impossible; the image holds it beside an intact
// stream, and the whole restore is refused, naming the edited stream.
TEST(Restore, RefusesWhatSealChunkCouldNotHaveWritten) {
  StoreConfig cfg;
  cfg.chunk_samples = 32;
  StripedRetentionStore src(cfg);
  src.create_stream("s", 2.0, 10.0);
  src.append_series("s", ramp(40));  // one sealed chunk, 8 hot values
  const mon::StreamSnapshot good = src.acquire_snapshot().export_stream("s");
  ASSERT_EQ(good.chunks.size(), 1u);
  ASSERT_EQ(good.hot.size(), 8u);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  using Edit = void (*)(mon::StreamSnapshot&);
  const std::vector<std::pair<const char*, Edit>> edits = {
      {"rate inf", [](mon::StreamSnapshot& s) { s.collection_rate_hz = kInf; }},
      {"rate nan", [](mon::StreamSnapshot& s) { s.collection_rate_hz = kNan; }},
      {"rate 0", [](mon::StreamSnapshot& s) { s.collection_rate_hz = 0.0; }},
      {"t0 nan", [](mon::StreamSnapshot& s) { s.t0 = kNan; }},
      {"hot_t0 inf", [](mon::StreamSnapshot& s) { s.hot_t0 = kInf; }},
      {"hot tail of a whole chunk",
       [](mon::StreamSnapshot& s) { s.hot.assign(32, 1.0); }},
      {"chunk t0 inf", [](mon::StreamSnapshot& s) { s.chunks[0].t0 = kInf; }},
      {"chunk dt inf", [](mon::StreamSnapshot& s) { s.chunks[0].dt = kInf; }},
      {"chunk dt nan", [](mon::StreamSnapshot& s) { s.chunks[0].dt = kNan; }},
      {"chunk dt 0", [](mon::StreamSnapshot& s) { s.chunks[0].dt = 0.0; }},
      {"chunk dt < 0", [](mon::StreamSnapshot& s) { s.chunks[0].dt = -0.5; }},
      {"empty chunk", [](mon::StreamSnapshot& s) { s.chunks[0].values = {}; }},
      {"chunk of 33 values spanning 17 points",
       [](mon::StreamSnapshot& s) {
         s.chunks[0].values.assign(33, 1.0);
         s.chunks[0].dt = 0.25;
       }},
      {"chunk spanning 64x its points",
       [](mon::StreamSnapshot& s) { s.chunks[0].dt *= 64.0; }},
      {"chunk of 16 values spanning 48 points",
       [](mon::StreamSnapshot& s) {
         s.chunks[0].values.assign(16, 1.0);
         s.chunks[0].dt = 1.5;
       }},
  };
  for (const auto& [what, edit] : edits) {
    mon::StreamSnapshot bad = good;
    edit(bad);
    std::map<std::string, mon::StreamSnapshot> image{{"a/intact", good},
                                                     {"b/edited", bad}};
    StripedRetentionStore dst(cfg);
    try {
      dst.restore_streams(std::move(image));
      ADD_FAILURE() << what << ": restored";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("stream b/edited"),
                std::string::npos)
          << what << ": " << e.what();
    }
    EXPECT_EQ(dst.streams(), 0u) << what;
  }

  // A chunk sealed by a store with larger chunks holds too many values.
  StoreConfig big_cfg = cfg;
  big_cfg.chunk_samples = 64;
  StripedRetentionStore big(big_cfg);
  big.create_stream("s", 2.0, 10.0);
  big.append_series("s", ramp(70));
  StripedRetentionStore dst(cfg);
  EXPECT_THROW(dst.restore_streams({{"s", big.acquire_snapshot().export_stream(
                                              "s")}}),
               std::invalid_argument);
  EXPECT_EQ(dst.streams(), 0u);

  // The intact image restores and reads back bit for bit.
  EXPECT_TRUE(dst.restore_streams({{"s", good}}).empty());
  const auto want = src.acquire_snapshot().query("s", 10.0, 30.0);
  const auto got = dst.acquire_snapshot().query("s", 10.0, 30.0);
  EXPECT_EQ(got.values(), want.values());
}

// Creation refuses every grid restore refuses, so whatever the store holds
// survives a restore of its own snapshot. A rate of +inf, one so low that
// sealing pushes hot_t0 to inf (1e-306 Hz), or one so high that sealing
// overflows (DBL_MAX) would otherwise make the store's own checkpoint
// unrestorable, or its first seal throw.
TEST(Restore, CreationRefusesWhatRestoreRefuses) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMax = std::numeric_limits<double>::max();
  StoreConfig cfg;
  cfg.chunk_samples = 32;
  StripedRetentionStore store(cfg);
  const std::vector<std::pair<double, double>> refused = {
      {kInf, 0.0},   {kNan, 0.0},  {0.0, 0.0},  {-1.0, 0.0},
      {1e-306, 0.0}, {1e-10, 0.0}, {2e6, 0.0},  {kMax, 0.0},
      {1.0, kNan},   {1.0, kInf},  {1.0, -kInf},
  };
  for (const auto& [rate, t0] : refused) {
    EXPECT_THROW(store.create_stream("s", rate, t0), std::invalid_argument)
        << "rate " << rate << " t0 " << t0;
    EXPECT_THROW((void)store.create_or_append("s", rate, t0, ramp(40)),
                 std::invalid_argument)
        << "rate " << rate << " t0 " << t0;
  }
  EXPECT_EQ(store.streams(), 0u);

  // The extremes creation takes seal six chunks that restore takes.
  const std::vector<std::pair<double, double>> extremes = {
      {1e-9, 0.0}, {1e-9, -1e300}, {1e6, 0.0}, {1.0, kMax}};
  for (const auto& [rate, t0] : extremes) {
    StripedRetentionStore src(cfg);
    src.create_stream("s", rate, t0);
    src.append_series("s", ramp(200));
    const mon::StreamMeta meta = src.find_meta("s").value();
    EXPECT_TRUE(std::isfinite(meta.t_end)) << "rate " << rate << " t0 " << t0;
    StripedRetentionStore dst(cfg);
    EXPECT_TRUE(
        dst.restore_streams({{"s", src.acquire_snapshot().export_stream("s")}})
            .empty())
        << "rate " << rate << " t0 " << t0;
    EXPECT_EQ(dst.stats("s").chunks, 6u) << "rate " << rate << " t0 " << t0;
  }
}

// Writer vs. snapshot readers under TSan: concurrent seal/evict must never
// free a chunk a live snapshot still references.
TEST(Snapshot, ConcurrentReadersNeverSeeReclaimedData) {
  StoreConfig cfg;
  cfg.chunk_samples = 32;
  cfg.max_chunks_per_stream = 1;
  mon::StripedRetentionStore store(cfg, 2);
  store.create_stream("a", 2.0);
  store.create_stream("b", 2.0);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 6000; ++i) {
      store.append_series("a", std::vector<double>{std::sin(0.01 * i)});
      store.append_series("b", std::vector<double>{std::cos(0.02 * i)});
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      struct Read {
        std::string name;
        double t_begin;
        double t_end;
        std::vector<double> values;
      };
      while (!stop.load()) {
        const mon::ReadSnapshot snap = store.acquire_snapshot();
        std::vector<Read> reads;
        for (const mon::StreamView& view : snap.views()) {
          if (view.ingested < 8) continue;
          const double t_end =
              view.t0 + double(view.ingested) / view.collection_rate_hz;
          const double t_begin = std::max(view.t0, t_end - 20.0);
          const sig::RegularSeries series =
              snap.query(view.name, t_begin, t_end);
          for (const double v : series.values())
            ASSERT_TRUE(std::isfinite(v));
          reads.push_back({view.name, t_begin, t_end, series.values()});
        }
        // Let every captured stream seal again (the cap evicts what this
        // snapshot captured), then re-read: the same bits as before.
        const auto sealed_since_capture = [&] {
          for (const mon::StreamView& view : snap.views())
            if (store.stats(view.name).chunks <= view.stats.chunks)
              return false;
          return true;
        };
        while (!stop.load() && !sealed_since_capture())
          std::this_thread::yield();
        for (const Read& read : reads)
          ASSERT_EQ(snap.query(read.name, read.t_begin, read.t_end).values(),
                    read.values)
              << read.name;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
}

}  // namespace
