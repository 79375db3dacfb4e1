// Tests for the self-telemetry layer (src/obs): histogram bucket/quantile
// math, striped-counter determinism across threads, trace-ring wraparound
// and drain semantics, and the Prometheus/chrome-trace exports. The
// Concurrent* suites are the TSan targets for the CI sanitizer matrix.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace obs = nyqmon::obs;

// ----------------------------------------------------------- histograms ----

TEST(Histogram, BucketOfLog2Boundaries) {
  // Bucket 0 holds exactly zero; bucket b holds [2^(b-1), 2^b - 1].
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(7), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(8), 4u);
  for (std::size_t b = 1; b < 63; ++b) {
    const std::uint64_t lo = obs::HistogramSnapshot::bucket_lo(b);
    const std::uint64_t hi = obs::HistogramSnapshot::bucket_hi(b);
    EXPECT_EQ(obs::Histogram::bucket_of(lo), b) << "lo of bucket " << b;
    EXPECT_EQ(obs::Histogram::bucket_of(hi), b) << "hi of bucket " << b;
    EXPECT_EQ(obs::Histogram::bucket_of(hi) + 1,
              obs::Histogram::bucket_of(hi + 1))
        << "buckets must tile contiguously at " << hi;
  }
  // The full u64 range lands inside the bucket array.
  EXPECT_LT(obs::Histogram::bucket_of(~std::uint64_t{0}),
            obs::HistogramSnapshot::kBuckets);
}

TEST(Histogram, SnapshotCountsSumMax) {
  obs::Histogram h;
  h.record(0);
  h.record(1);
  h.record(3);
  h.record(100);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 104u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_EQ(s.buckets[0], 1u);  // the zero
  EXPECT_EQ(s.buckets[1], 1u);  // 1
  EXPECT_EQ(s.buckets[2], 1u);  // 3
  EXPECT_EQ(s.buckets[7], 1u);  // 100 in [64, 127]
  EXPECT_DOUBLE_EQ(s.mean(), 26.0);
}

TEST(Histogram, QuantileInterpolatesInsideBucket) {
  obs::Histogram h;
  h.record(100);  // single value: bucket 7 spans [64, 127], max clamps to 100
  const obs::HistogramSnapshot s = h.snapshot();
  // rank = q*1 inside the only bucket; lo 64, hi clamped to the observed
  // max 100 — so quantiles interpolate along [64, 100].
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 64.0 + 0.5 * (100.0 - 64.0));
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 64.0);
}

TEST(Histogram, QuantileWalksCumulativeRanks) {
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.record(1);   // bucket 1, degenerate [1,1]
  for (int i = 0; i < 10; ++i) h.record(1u << 20);  // bucket 21
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  // p50 lands well inside the 90-deep bucket of ones.
  EXPECT_DOUBLE_EQ(s.quantile(0.50), 1.0);
  // p99 lands in the top bucket, below its clamped upper edge (the max).
  const double p99 = s.quantile(0.99);
  EXPECT_GE(p99, static_cast<double>(obs::HistogramSnapshot::bucket_lo(21)));
  EXPECT_LE(p99, static_cast<double>(s.max));
  EXPECT_DOUBLE_EQ(s.quantile(1.0), static_cast<double>(s.max));
}

TEST(Histogram, QuantileOfEmptyIsZero) {
  const obs::HistogramSnapshot s = obs::Histogram{}.snapshot();
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, SnapshotMergeAddsBucketwise) {
  obs::Histogram a, b;
  a.record(5);
  a.record(70);
  b.record(5);
  b.record(3000);
  obs::HistogramSnapshot m = a.snapshot();
  m.merge(b.snapshot());
  EXPECT_EQ(m.count, 4u);
  EXPECT_EQ(m.sum, 5u + 70u + 5u + 3000u);
  EXPECT_EQ(m.max, 3000u);
  EXPECT_EQ(m.buckets[obs::Histogram::bucket_of(5)], 2u);
  EXPECT_EQ(m.buckets[obs::Histogram::bucket_of(70)], 1u);
  EXPECT_EQ(m.buckets[obs::Histogram::bucket_of(3000)], 1u);
}

TEST(Histogram, ResetZeroesEverything) {
  obs::Histogram h;
  h.record(42);
  h.reset();
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
}

// ------------------------------------------------------------- counters ----

TEST(Counter, SingleThreadExact) {
  obs::Counter c;
  for (int i = 0; i < 1000; ++i) c.add(3);
  EXPECT_EQ(c.value(), 3000u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, CrossThreadMergeIsDeterministic) {
  // The striped cells must sum to exactly threads*iters*delta once every
  // writer has joined (the join is the happens-before edge that makes the
  // relaxed cell loads exact).
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  obs::Counter c;
  for (int round = 0; round < 3; ++round) {
    c.reset();
    std::vector<std::thread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      writers.emplace_back([&c] {
        for (int i = 0; i < kIters; ++i) c.add(2);
      });
    for (auto& w : writers) w.join();
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters * 2)
        << "round " << round;
  }
}

TEST(Gauge, SetAddReset) {
  obs::Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

// ------------------------------------------------------------- registry ----

TEST(Registry, SameNameSameInstrument) {
  obs::Registry& reg = obs::Registry::instance();
  obs::Counter& a = reg.counter("nyqmon_selftest_reg_total");
  obs::Counter& b = reg.counter("nyqmon_selftest_reg_total");
  EXPECT_EQ(&a, &b);
  a.add(5);
  EXPECT_EQ(reg.counter_value("nyqmon_selftest_reg_total"), b.value());
}

TEST(Registry, UnregisteredNamesReadAsZero) {
  obs::Registry& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter_value("nyqmon_selftest_never_registered_total"), 0u);
  EXPECT_EQ(reg.histogram_snapshot("nyqmon_selftest_never_registered_ns")
                .count,
            0u);
}

TEST(Registry, PrometheusExposition) {
  obs::Registry& reg = obs::Registry::instance();
  reg.counter("nyqmon_selftest_frames_total").add(7);
  reg.gauge("nyqmon_selftest_backlog_bytes").set(123);
  reg.histogram("nyqmon_selftest_latency_ns").record(100);
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# TYPE nyqmon_selftest_frames_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE nyqmon_selftest_backlog_bytes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("nyqmon_selftest_backlog_bytes 123"), std::string::npos);
  EXPECT_NE(text.find("# TYPE nyqmon_selftest_latency_ns summary"),
            std::string::npos);
  EXPECT_NE(text.find("nyqmon_selftest_latency_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("nyqmon_selftest_latency_ns_count 1"),
            std::string::npos);
  EXPECT_NE(text.find("nyqmon_selftest_latency_ns_max 100"),
            std::string::npos);
}

// ---------------------------------------------------------------- traces ----

TEST(Trace, RingWraparoundKeepsNewestAndCountsDrops) {
  obs::TraceRecorder rec(/*ring_capacity=*/8);
  rec.set_enabled(true);
  for (std::uint64_t i = 0; i < 18; ++i)
    rec.record("ev", "test", /*ts_ns=*/i, /*dur_ns=*/1);
  EXPECT_EQ(rec.dropped(), 10u);
  const std::vector<obs::TraceEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 8u);
  // The ring overwrote the oldest: what's left is ts 10..17, in order.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].ts_ns, 10 + i);
}

TEST(Trace, DrainConsumesAndMergesAcrossThreads) {
  obs::TraceRecorder rec(64);
  rec.set_enabled(true);
  std::thread other([&rec] { rec.record("other", "test", 5, 1); });
  other.join();
  rec.record("main", "test", 2, 1);
  const std::vector<obs::TraceEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 2u);
  // Merged in timestamp order, with distinct per-thread ids.
  EXPECT_STREQ(events[0].name, "main");
  EXPECT_STREQ(events[1].name, "other");
  EXPECT_NE(events[0].tid, events[1].tid);
  // Consuming: a second drain sees an empty window.
  EXPECT_TRUE(rec.drain().empty());
}

TEST(Trace, ShortLivedWritersShareOneBoundedRing) {
  // One short-lived thread per event, as the runtime starts fresh workers
  // on every poll: they share the recorder's one ring, so it keeps only
  // the newest 8 events and counts the rest as drops.
  obs::TraceRecorder rec(/*ring_capacity=*/8);
  rec.set_enabled(true);
  for (std::uint64_t i = 0; i < 64; ++i)
    std::thread([&rec, i] { rec.record("ev", "test", i, 1); }).join();
  EXPECT_EQ(rec.dropped(), 56u);
  const std::vector<obs::TraceEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].ts_ns, 56 + i);
}

TEST(Trace, DisabledRecordsNothing) {
  obs::TraceRecorder rec(8);
  rec.record("ev", "test", 1, 1);
  EXPECT_TRUE(rec.drain().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Trace, ScopedSpanWritesToGlobalRecorder) {
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  rec.drain();  // discard anything earlier tests left behind
  rec.set_enabled(true);
  {
    obs::ScopedSpan span("obs_test_span", "test");
  }
  rec.set_enabled(false);
  const std::vector<obs::TraceEvent> events = rec.drain();
  const auto it =
      std::find_if(events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return std::string(e.name) == "obs_test_span";
      });
  ASSERT_NE(it, events.end());
  EXPECT_STREQ(it->category, "test");
}

TEST(Trace, ChromeJsonShape) {
  obs::TraceRecorder rec(16);
  rec.set_enabled(true);
  rec.record("span_a", "test", 1000, 2500);
  const std::string json = rec.export_chrome_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"name\":\"span_a\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // ns exported as fractional microseconds.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

// ------------------------------------------------------ structured logs ----

TEST(Log, RecordsCarryLevelEventAndDetail) {
  obs::LogRecorder rec(8);
  rec.log(obs::LogLevel::kWarn, "test.first", "k=1");
  rec.log(obs::LogLevel::kError, "test.second", "k=2 extra=yes");
  EXPECT_EQ(rec.recorded(), 2u);
  EXPECT_EQ(rec.dropped(), 0u);
  const std::vector<obs::LogRecord> records = rec.drain();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_STREQ(records[0].event, "test.first");
  EXPECT_EQ(records[0].level, obs::LogLevel::kWarn);
  EXPECT_EQ(records[0].detail, "k=1");
  EXPECT_STREQ(records[1].event, "test.second");
  EXPECT_EQ(records[1].level, obs::LogLevel::kError);
  EXPECT_LE(records[0].ts_ns, records[1].ts_ns);  // merged in time order
  // Consuming: a second drain sees an empty window.
  EXPECT_TRUE(rec.drain().empty());
}

TEST(Log, RingOverflowKeepsNewestAndCountsDrops) {
  obs::LogRecorder rec(4);
  for (int i = 0; i < 10; ++i)
    rec.log(obs::LogLevel::kInfo, "test.overflow", "i=" + std::to_string(i));
  EXPECT_EQ(rec.dropped(), 6u);
  EXPECT_EQ(rec.recorded(), 10u);
  const std::vector<obs::LogRecord> records = rec.drain();
  ASSERT_EQ(records.size(), 4u);
  // The ring overwrote the oldest: what's left is i=6..9, in order.
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(records[static_cast<std::size_t>(i)].detail,
              "i=" + std::to_string(6 + i));
}

TEST(Log, ShortLivedWritersShareOneBoundedRing) {
  obs::LogRecorder rec(/*ring_capacity=*/4);
  for (int i = 0; i < 64; ++i)
    std::thread([&rec, i] {
      rec.log(obs::LogLevel::kInfo, "test.short_lived",
              "i=" + std::to_string(i));
    }).join();
  EXPECT_EQ(rec.dropped(), 60u);
  EXPECT_EQ(rec.recorded(), 64u);
  const std::vector<obs::LogRecord> records = rec.drain();
  ASSERT_EQ(records.size(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(records[static_cast<std::size_t>(i)].detail,
              "i=" + std::to_string(60 + i));
}

TEST(Log, RecordTidMatchesTheThreadsTraceTid) {
  // The other thread is the second to trace but the first to log: its log
  // record still carries its trace tid, not an id of the log's own.
  obs::TraceRecorder traces(8);
  traces.set_enabled(true);
  obs::LogRecorder logs(8);
  traces.record("main", "test", 1, 1);
  std::thread([&] {
    traces.record("other", "test", 2, 1);
    logs.log(obs::LogLevel::kInfo, "test.tid", "");
  }).join();
  const std::vector<obs::TraceEvent> events = traces.drain();
  const std::vector<obs::LogRecord> records = logs.drain();
  ASSERT_EQ(events.size(), 2u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].tid, events[1].tid);
  EXPECT_NE(records[0].tid, events[0].tid);
}

TEST(Log, LevelNames) {
  EXPECT_STREQ(obs::to_string(obs::LogLevel::kInfo), "info");
  EXPECT_STREQ(obs::to_string(obs::LogLevel::kWarn), "warn");
  EXPECT_STREQ(obs::to_string(obs::LogLevel::kError), "error");
}

TEST(Log, ExportTextFollowsNyqlogSchema) {
  obs::LogRecorder rec(8);
  rec.log(obs::LogLevel::kError, "test.export", "key=value");
  const std::string text = rec.export_text();
  EXPECT_EQ(text.rfind("nyqlog v1 records=1 dropped=0\n", 0), 0u) << text;
  EXPECT_NE(text.find("ts_ns="), std::string::npos);
  EXPECT_NE(text.find("level=error"), std::string::npos);
  EXPECT_NE(text.find("event=test.export"), std::string::npos);
  EXPECT_NE(text.find("tid="), std::string::npos);
  EXPECT_NE(text.find(" key=value\n"), std::string::npos);
  // Consuming: the next export is just the (record-free) header. The drop
  // counter is cumulative, not reset by draining.
  EXPECT_EQ(rec.export_text(), "nyqlog v1 records=0 dropped=0\n");
}

// ------------------------------------------------- TSan race targets -------

TEST(Concurrent, CountersHistogramsAndGauges) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        c.add(1);
        g.set(t);
        h.record(static_cast<std::uint64_t>(i));
        if ((i & 1023) == 0) {
          (void)c.value();
          (void)h.snapshot();  // racy reads are part of the contract
        }
      }
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kIters);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t b : s.buckets) bucketed += b;
  EXPECT_EQ(bucketed, s.count);
}

TEST(Concurrent, TraceRecordVersusDrain) {
  obs::TraceRecorder rec(128);
  rec.set_enabled(true);
  constexpr int kWriters = 3;
  constexpr int kIters = 5000;
  std::atomic<bool> stop{false};
  std::vector<obs::TraceEvent> drained;
  std::thread drainer([&] {
    while (!stop.load()) {
      std::vector<obs::TraceEvent> batch = rec.drain();
      drained.insert(drained.end(), batch.begin(), batch.end());
    }
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t)
    writers.emplace_back([&rec] {
      for (int i = 0; i < kIters; ++i)
        rec.record("w", "test", static_cast<std::uint64_t>(i), 1);
    });
  for (auto& w : writers) w.join();
  stop.store(true);
  drainer.join();
  std::vector<obs::TraceEvent> tail = rec.drain();
  // Every recorded event was either drained, still buffered, or dropped.
  EXPECT_EQ(drained.size() + tail.size() + rec.dropped(),
            static_cast<std::uint64_t>(kWriters) * kIters);
}

TEST(Concurrent, TraceDrainsAreSerializedAndDisjoint) {
  // Two drainers race three writers. Each drain empties the ring in one
  // atomic step, so concurrent batches are disjoint and their union
  // accounts for every event exactly once — unique per-event timestamps
  // make any duplication or loss detectable.
  obs::TraceRecorder rec(16384);
  rec.set_enabled(true);
  constexpr int kWriters = 3;
  constexpr int kIters = 4000;  // all writers' events fit the ring: no drops
  std::atomic<bool> stop{false};
  std::mutex mu;
  std::vector<std::uint64_t> seen;
  const auto drain_into = [&] {
    while (!stop.load()) {
      const std::vector<obs::TraceEvent> batch = rec.drain();
      std::lock_guard<std::mutex> lock(mu);
      for (const obs::TraceEvent& e : batch) seen.push_back(e.ts_ns);
    }
  };
  std::thread d1(drain_into);
  std::thread d2(drain_into);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t)
    writers.emplace_back([&rec, t] {
      for (int i = 0; i < kIters; ++i)
        rec.record("w", "test",
                   static_cast<std::uint64_t>(t) * 1000000 +
                       static_cast<std::uint64_t>(i),
                   1);
    });
  for (auto& w : writers) w.join();
  stop.store(true);
  d1.join();
  d2.join();
  for (const obs::TraceEvent& e : rec.drain()) seen.push_back(e.ts_ns);

  EXPECT_EQ(rec.dropped(), 0u);
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kWriters) * kIters);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "a concurrent drain duplicated an event";
}

TEST(Concurrent, LogRecordVersusDrain) {
  obs::LogRecorder rec(8192);
  constexpr int kWriters = 3;
  constexpr int kIters = 3000;
  std::atomic<bool> stop{false};
  std::size_t drained = 0;
  std::thread drainer([&] {
    while (!stop.load()) drained += rec.drain().size();
  });
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t)
    writers.emplace_back([&rec] {
      for (int i = 0; i < kIters; ++i)
        rec.log(obs::LogLevel::kInfo, "test.race", "i=" + std::to_string(i));
    });
  for (auto& w : writers) w.join();
  stop.store(true);
  drainer.join();
  const std::size_t tail = rec.drain().size();
  // Every record was either drained, still buffered, or dropped.
  EXPECT_EQ(drained + tail + rec.dropped(),
            static_cast<std::uint64_t>(kWriters) * kIters);
  EXPECT_EQ(rec.recorded(), static_cast<std::uint64_t>(kWriters) * kIters);
}
