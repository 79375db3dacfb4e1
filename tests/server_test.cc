// NyqmondServer + NyqmonClient: wire round-trips, protocol edge cases
// (truncated frames, oversized length prefixes, unknown verbs, disconnects
// mid-exchange), 4-client concurrent ingest+query determinism, live
// serving in front of a StreamingRuntime, and checkpointed shutdown whose
// WAL/segments recover to the served state.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/router.h"
#include "monitor/striped_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/builder.h"
#include "query/engine.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/manager.h"
#include "storage/segment.h"
#include "telemetry/fleet.h"

namespace {

using namespace nyqmon;
namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::temp_directory_path() / ("nyqmon_server_test_" + name))
                 .string()) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

bool same_values(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), 8 * a.size()) == 0);
}

/// Deterministic per-stream test signal.
std::vector<double> wave(std::size_t n, double phase) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = std::sin(phase + 0.1 * static_cast<double>(i)) +
           0.01 * static_cast<double>(i);
  return v;
}

/// Wait until the server has reaped its side of a closed connection. The
/// deadline covers a TSan Debug build on a busy host: there the slow-client
/// drop (stall, then slow_client_timeout_ms) lands ~0.8 s after the burst
/// when run alone and up to ~1.9 s beside seven other copies on 4 cores.
void wait_closed(const srv::NyqmondServer& server, std::uint64_t at_least) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().connections_closed < at_least &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

// ------------------------------------------------------------ round trips --

TEST(Server, StartStopAndStats) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  ASSERT_GT(server.port(), 0);

  srv::NyqmonClient client("127.0.0.1", server.port());
  const std::string json = client.stats_json();
  EXPECT_NE(json.find("\"streams\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queries\":0"), std::string::npos) << json;

  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().stats_frames, 1u);
}

TEST(Server, IngestThenQueryRoundTrip) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());

  const auto values = wave(256, 0.0);
  // Two batches: creation + append to an existing stream.
  EXPECT_EQ(client.ingest("rack1/temp", 1.0, 0.0,
                          std::span<const double>(values).first(100)),
            100u);
  EXPECT_EQ(client.ingest("rack1/temp", 1.0, 0.0,
                          std::span<const double>(values).subspan(100)),
            256u);

  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("rack1/*")
                                  .range(0.0, 256.0)
                                  .align(1.0)
                                  .build();
  const srv::QueryReply reply = client.query(spec);
  EXPECT_EQ(reply.matched, 1u);
  EXPECT_EQ(reply.reconstructed, 1u);
  ASSERT_EQ(reply.series.size(), 1u);
  EXPECT_EQ(reply.series[0].label, "rack1/temp");

  // The wire result must be bit-identical to a local engine over the store.
  qry::QueryEngine local(store);
  const auto direct = local.run(spec);
  ASSERT_EQ(direct.result->series.size(), 1u);
  EXPECT_TRUE(same_values(direct.result->series[0].series.span(),
                          reply.series[0].series.span()));

  // Identical spec again: served from the server-side cache.
  EXPECT_TRUE(client.query(spec).cache_hit);
  server.stop();
}

// A first INGEST needs a grid the store can restore from its own
// checkpoint: a rate of 0, of +inf or so low that sealing overflows hot_t0
// (1e-306 Hz), or a t0 of NaN, answers ERR naming the stream and creates
// nothing.
TEST(Server, IngestIntoUnknownStreamNeedsRate) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());
  const auto values = wave(600, 0.0);  // seals one 512-value chunk
  const std::vector<std::pair<double, double>> grids = {
      {0.0, 0.0},
      {std::numeric_limits<double>::infinity(), 0.0},
      {1e-306, 0.0},
      {1.0, std::numeric_limits<double>::quiet_NaN()},
  };
  for (const auto& [rate, t0] : grids) {
    try {
      client.ingest("x/y", rate, t0, values);
      ADD_FAILURE() << "rate " << rate << " t0 " << t0 << ": answered OK";
    } catch (const srv::ServerError& e) {
      EXPECT_NE(std::string(e.what()).find("x/y"), std::string::npos)
          << e.what();
    }
  }
  const std::string json = client.stats_json();
  EXPECT_NE(json.find("\"streams\":0"), std::string::npos) << json;
  // The connection survives an application-level error.
  EXPECT_EQ(client.ingest("x/y", 2.0, 0.0, values), 600u);
  server.stop();
}

// ------------------------------------------------------------ edge cases --

TEST(Server, TruncatedFrameThenDisconnectIsHarmless) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  {
    srv::NyqmonClient half("127.0.0.1", server.port());
    // Claim a 100-byte body, deliver 10, vanish.
    std::vector<std::uint8_t> bytes;
    sto::put_u32(bytes, 100);
    for (int i = 0; i < 10; ++i) sto::put_u8(bytes, 0x42);
    half.send_raw(bytes);
  }
  wait_closed(server, 1);

  // Server must still serve.
  srv::NyqmonClient client("127.0.0.1", server.port());
  EXPECT_NE(client.stats_json().find("\"streams\""), std::string::npos);
  EXPECT_EQ(server.stats().protocol_errors, 0u);  // partial ≠ protocol error
  server.stop();
}

TEST(Server, OversizedLengthPrefixAnswersErrorAndCloses) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient bad("127.0.0.1", server.port());
  std::vector<std::uint8_t> bytes;
  sto::put_u32(bytes, 0x7fffffffu);  // way past the frame cap
  bad.send_raw(bytes);

  // The server answers ERR, then closes this connection.
  std::vector<std::uint8_t> body;
  ASSERT_NO_THROW(body = bad.request_raw(0, {}));  // reads the pending ERR
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body[0], static_cast<std::uint8_t>(srv::Status::kError));
  wait_closed(server, 1);
  EXPECT_GE(server.stats().protocol_errors, 1u);

  srv::NyqmonClient client("127.0.0.1", server.port());
  EXPECT_NE(client.stats_json().find("\"streams\""), std::string::npos);
  server.stop();
}

TEST(Server, UnknownVerbKeepsConnectionUsable) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());

  const auto body = client.request_raw(0x7e, {});
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body[0], static_cast<std::uint8_t>(srv::Status::kError));

  // Same connection still works for a real command.
  EXPECT_NE(client.stats_json().find("\"streams\""), std::string::npos);
  EXPECT_GE(server.stats().protocol_errors, 1u);
  server.stop();
}

TEST(Server, MalformedPayloadAnswersError) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());

  // INGEST whose declared value count exceeds the payload.
  std::vector<std::uint8_t> payload;
  sto::put_string(payload, "a/b");
  sto::put_f64(payload, 1.0);
  sto::put_f64(payload, 0.0);
  sto::put_u32(payload, 1000);  // ...but zero value bytes follow
  const auto body = client.request_raw(
      static_cast<std::uint8_t>(srv::Verb::kIngest), payload);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body[0], static_cast<std::uint8_t>(srv::Status::kError));
  EXPECT_EQ(store.streams(), 0u);

  // A count whose 8×count wraps a 32-bit product to the actual payload
  // size must still be rejected (no multi-GB allocation from a 60-byte
  // frame).
  std::vector<std::uint8_t> wrap;
  sto::put_string(wrap, "a/b");
  sto::put_f64(wrap, 1.0);
  sto::put_f64(wrap, 0.0);
  sto::put_u32(wrap, 0x20000002u);  // 8 * count ≡ 16 (mod 2^32)
  sto::put_f64(wrap, 1.0);
  sto::put_f64(wrap, 2.0);
  const auto wrap_body = client.request_raw(
      static_cast<std::uint8_t>(srv::Verb::kIngest), wrap);
  ASSERT_FALSE(wrap_body.empty());
  EXPECT_EQ(wrap_body[0], static_cast<std::uint8_t>(srv::Status::kError));
  EXPECT_EQ(store.streams(), 0u);

  // Bad query spec (t_begin >= t_end) is rejected, connection survives.
  qry::QuerySpec spec;
  spec.selector = "*";
  spec.t_begin = 5.0;
  spec.t_end = 5.0;
  spec.step_s = 1.0;
  EXPECT_THROW(client.query(spec), std::runtime_error);
  EXPECT_NE(client.stats_json().find("\"streams\""), std::string::npos);
  server.stop();
}

TEST(Server, ClientDisconnectMidQueryIsHarmless) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  {
    srv::NyqmonClient client("127.0.0.1", server.port());
    const auto values = wave(4096, 1.0);
    client.ingest("big/stream", 10.0, 0.0, values);

    // Fire a query whose reply is substantial, then vanish without reading.
    const qry::QuerySpec spec = qry::QueryBuilder()
                                    .select("big/*")
                                    .range(0.0, 409.6)
                                    .align(0.1)
                                    .build();
    srv::NyqmonClient dropper("127.0.0.1", server.port());
    dropper.send_raw(srv::request_frame(srv::Verb::kQuery,
                                        srv::encode_query(spec)));
    dropper.close();
  }
  wait_closed(server, 2);

  srv::NyqmonClient client("127.0.0.1", server.port());
  EXPECT_NE(client.stats_json().find("\"streams\":1"), std::string::npos);
  server.stop();
}

// ------------------------------------------- concurrency & determinism ----

TEST(Server, FourClientConcurrentIngestQueryIsDeterministic) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kBatches = 16;
  constexpr std::size_t kBatch = 64;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> failures{0};
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        srv::NyqmonClient client("127.0.0.1", server.port());
        const std::string stream =
            "client" + std::to_string(c) + "/metric";
        const auto values = wave(kBatches * kBatch, static_cast<double>(c));
        for (std::size_t b = 0; b < kBatches; ++b) {
          client.ingest(stream, 1.0, 0.0,
                        std::span<const double>(values).subspan(b * kBatch,
                                                                kBatch));
          // Interleave queries over everyone's streams while others ingest.
          const qry::QuerySpec spec =
              qry::QueryBuilder()
                  .select("client*/metric")
                  .range(0.0, static_cast<double>(kBatches * kBatch))
                  .align(4.0)
                  .aggregate(qry::Aggregation::kSum)
                  .build();
          const auto reply = client.query(spec);
          if (reply.series.size() != 1) ++failures;
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0u);

  // Quiesced: every client's view of the same spec must now be identical,
  // and bit-identical to a local query engine over the server's store.
  const qry::QuerySpec spec =
      qry::QueryBuilder()
          .select("client*/metric")
          .range(0.0, static_cast<double>(kBatches * kBatch))
          .align(2.0)
          .aggregate(qry::Aggregation::kP95)
          .build();

  srv::NyqmonClient a("127.0.0.1", server.port());
  srv::NyqmonClient b("127.0.0.1", server.port());
  const auto reply_a = a.query(spec);
  const auto reply_b = b.query(spec);
  ASSERT_EQ(reply_a.series.size(), 1u);
  ASSERT_EQ(reply_b.series.size(), 1u);
  EXPECT_TRUE(same_values(reply_a.series[0].series.span(),
                          reply_b.series[0].series.span()));
  EXPECT_EQ(reply_a.matched, kClients);

  qry::QueryEngine local(store);
  const auto direct = local.run(spec);
  EXPECT_TRUE(same_values(direct.result->series[0].series.span(),
                          reply_a.series[0].series.span()));
  server.stop();
}

// --------------------------------------------- runtime + durable shutdown --

TEST(Server, ServesLiveStreamingRuntime) {
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 16;
  fleet_cfg.seed = 21;
  const tel::Fleet fleet(fleet_cfg);

  rt::VirtualClock clock;
  rt::RuntimeConfig cfg;
  cfg.engine.workers = 2;
  cfg.engine.samples_per_window = 48;
  cfg.engine.windows_per_pair = 4;
  rt::StreamingRuntime runtime(fleet, clock, cfg);

  srv::ServerConfig server_cfg;
  server_cfg.checkpoint_fn = [&runtime] { return runtime.checkpoint(); };
  srv::NyqmondServer server(runtime.mutable_store(), nullptr, server_cfg);
  server.start();

  std::atomic<bool> stop{false};
  std::thread driver([&] {
    while (!runtime.done() && !stop.load()) runtime.step();
  });

  // Query the fleet over the wire while the runtime ingests it.
  srv::NyqmonClient client("127.0.0.1", server.port());
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("*/*")
                                  .range(0.0, 3600.0)
                                  .align(60.0)
                                  .aggregate(qry::Aggregation::kAvg)
                                  .build();
  std::size_t queries = 0;
  while (!runtime.done() && queries < 50) {
    client.query(spec);
    ++queries;
  }
  stop.store(true);
  driver.join();
  while (!runtime.done()) runtime.step();

  EXPECT_GT(queries, 0u);
  const auto reply = client.query(spec);
  ASSERT_EQ(reply.series.size(), 1u);
  EXPECT_EQ(reply.matched, fleet.size());
  server.stop();
}

TEST(Server, CheckpointedShutdownRecoversServedState) {
  TempDir dir("shutdown");
  sto::StorageConfig storage_cfg;
  storage_cfg.dir = dir.path;
  storage_cfg.truncate_existing = true;
  mon::StoreConfig store_cfg;
  store_cfg.chunk_samples = 128;

  std::vector<std::string> names;
  {
    auto storage = std::make_unique<sto::StorageManager>(storage_cfg);
    mon::StripedRetentionStore store(store_cfg);
    storage->record_geometry(store_cfg);
    store.set_ingest_sink(storage.get());

    srv::NyqmondServer server(store, storage.get());
    server.start();
    srv::NyqmonClient client("127.0.0.1", server.port());
    for (std::size_t s = 0; s < 6; ++s) {
      const std::string name = "dev" + std::to_string(s) + "/metric";
      names.push_back(name);
      client.ingest(name, 2.0, 0.0, wave(700, static_cast<double>(s)));
    }
    // Mid-session checkpoint over the wire...
    const auto ck = client.checkpoint();
    EXPECT_TRUE(ck.persisted);
    EXPECT_GT(ck.chunks, 0u);
    // ...more ingest afterwards lands in the fresh WAL only.
    client.ingest(names[0], 2.0, 0.0, wave(100, 42.0));
    server.stop();  // graceful: final checkpoint
  }

  // Cold start from disk: the recovered store serves exactly what the
  // server ingested, including the post-checkpoint tail.
  sto::StorageConfig attach;
  attach.dir = dir.path;
  sto::StorageManager manager(attach);
  mon::StoreConfig recovered_cfg;
  ASSERT_TRUE(manager.manifest_geometry().has_value());
  manager.manifest_geometry()->apply(recovered_cfg);
  mon::StripedRetentionStore recovered(recovered_cfg);
  const auto rec = manager.recover(recovered);
  EXPECT_EQ(rec.crc_skipped_blocks, 0u);
  ASSERT_EQ(recovered.stream_names().size(), names.size());
  EXPECT_EQ(recovered.find_meta(names[0]).value().ingested_samples, 800u);
  for (const auto& name : names) {
    const auto meta = recovered.find_meta(name).value();
    EXPECT_GT(meta.ingested_samples, 0u) << name;
  }
}

// ------------------------------------------------------- self-telemetry ----

TEST(Server, MetricsVerbReturnsPrometheusText) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());

  // Drive one ingest and one query so the layer metrics have activity.
  client.ingest("dev/metric", 2.0, 0.0, wave(600, 0.5));
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("dev/metric")
                                  .range(0.0, 300.0)
                                  .align(10.0)
                                  .build();
  (void)client.query(spec);

  const std::string text = client.metrics_text();
  server.stop();

  // Prometheus exposition shape, per-verb latency summaries, and the
  // store's lock instrumentation (the ISSUE acceptance bar).
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.find("nyqmon_server_query_latency_ns{quantile=\"0.99\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("nyqmon_server_ingest_latency_ns"), std::string::npos);
  EXPECT_NE(text.find("nyqmon_server_metrics_latency_ns"), std::string::npos);
  EXPECT_NE(text.find("nyqmon_store_lock_acquisitions_total"),
            std::string::npos);
  EXPECT_NE(text.find("nyqmon_store_appends_total"), std::string::npos);
  EXPECT_NE(text.find("nyqmon_query_latency_ns"), std::string::npos);
  EXPECT_EQ(server.stats().metrics_frames, 1u);
}

TEST(Server, TraceVerbDrainsChromeJson) {
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  rec.drain();  // start from an empty capture window
  rec.set_enabled(true);

  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());
  client.ingest("dev/metric", 2.0, 0.0, wave(400, 1.5));
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("dev/metric")
                                  .range(0.0, 200.0)
                                  .align(10.0)
                                  .build();
  (void)client.query(spec);

  const std::string json = client.trace_json();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"server\""), std::string::npos) << json;

  // TRACE is consuming: an immediately repeated drain returns a window
  // holding at most the spans of the TRACE round-trip itself.
  const std::string second = client.trace_json();
  EXPECT_EQ(second.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(second.find("\"cat\":\"query\""), std::string::npos) << second;

  rec.set_enabled(false);
  server.stop();
  EXPECT_EQ(server.stats().trace_frames, 2u);
}

// ------------------------------------------------------------- handoff ----

TEST(Server, HandoffExportImportRoundTrip) {
  mon::StripedRetentionStore src_store;
  srv::NyqmondServer src(src_store, nullptr);
  src.start();
  srv::NyqmonClient src_client("127.0.0.1", src.port());
  src_client.ingest("podA/cpu", 2.0, 0.0, wave(700, 0.1));
  src_client.ingest("podA/mem", 2.0, 0.0, wave(700, 0.2));
  src_client.ingest("podB/cpu", 2.0, 0.0, wave(700, 0.3));

  // Nothing matches: an empty (but well-formed) export.
  EXPECT_EQ(src_client.handoff_export("no/such").streams, 0u);

  const srv::HandoffExportReply exported =
      src_client.handoff_export("podA/*");
  EXPECT_EQ(exported.streams, 2u);
  // The snapshot carries the retained window (not lifetime ingest).
  EXPECT_GT(exported.samples, 0u);
  ASSERT_FALSE(exported.segment.empty());
  // Non-destructive: the source still serves its copy.
  EXPECT_EQ(src_store.streams(), 3u);

  mon::StripedRetentionStore dst_store;
  srv::NyqmondServer dst(dst_store, nullptr);
  dst.start();
  srv::NyqmonClient dst_client("127.0.0.1", dst.port());
  const srv::HandoffImportReply imported =
      dst_client.handoff_import(exported.segment);
  EXPECT_EQ(imported.streams, 2u);
  EXPECT_EQ(imported.samples, exported.samples);
  EXPECT_FALSE(imported.persisted);  // no durable tier attached

  // The destination answers the moved streams bit-identically.
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("podA/*")
                                  .range(0.0, 350.0)
                                  .align(0.5)
                                  .build();
  const srv::QueryReply a = src_client.query(spec);
  const srv::QueryReply b = dst_client.query(spec);
  ASSERT_EQ(a.series.size(), 2u);
  ASSERT_EQ(b.series.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a.series[i].label, b.series[i].label);
    EXPECT_TRUE(same_values(a.series[i].series.span(),
                            b.series[i].series.span()));
  }

  // A second import collides and is refused, naming every conflict.
  try {
    dst_client.handoff_import(exported.segment);
    FAIL() << "duplicate import must be refused";
  } catch (const srv::ServerError& e) {
    EXPECT_NE(std::string(e.what()).find("refused"), std::string::npos);
    ASSERT_EQ(e.details().size(), 2u);
    EXPECT_EQ(e.details()[0].node, "podA/cpu");
    EXPECT_EQ(e.details()[1].node, "podA/mem");
  }
  EXPECT_EQ(dst_store.streams(), 2u);  // the refusal restored nothing new
  EXPECT_GE(dst.stats().handoff_frames, 2u);
  src.stop();
  dst.stop();
}

// An ERR detail block holds at most 255 entries, since its count is one
// byte: a refusal with more conflicts sends the first 255, and its message
// states the total.
TEST(Server, HandoffImportRefusalCapsDetailsAndStatesTotal) {
  mon::StripedRetentionStore store;
  for (std::size_t i = 0; i < 300; ++i)
    store.create_or_append("dev" + std::to_string(i) + "/metric", 1.0, 0.0,
                           wave(64, 0.01 * static_cast<double>(i)));
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());
  const srv::HandoffExportReply exported = client.handoff_export("*");
  ASSERT_EQ(exported.streams, 300u);
  try {
    client.handoff_import(exported.segment);
    FAIL() << "importing streams the node already holds must be refused";
  } catch (const srv::ServerError& e) {
    EXPECT_NE(std::string(e.what()).find("300 streams already exist"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.details().size(), 255u);
  }
  EXPECT_EQ(store.streams(), 300u);
  server.stop();
}

// A sealed chunk spans exactly chunk_samples points of its stream's
// collection grid, and a read re-samples a chunk onto every point it
// spans. An image whose one chunk of 512 values spans 8192 s of a 1 Hz
// stream would make every query of that stream pay for 4 M points, so the
// import is refused, naming the stream, and the node stays empty.
TEST(Server, HandoffImportRefusesChunkSealChunkCouldNotHaveWritten) {
  mon::StripedRetentionStore store;  // chunk_samples 512
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());

  mon::StreamSnapshot crafted;
  crafted.name = "crafted/cpu";
  crafted.collection_rate_hz = 1.0;
  crafted.hot_t0 = 512.0 * 8192.0;
  crafted.chunks.push_back({0.0, 8192.0, wave(512, 0.0)});
  sto::SegmentWriter writer;
  writer.add_stream(crafted);
  try {
    client.handoff_import(writer.bytes());
    FAIL() << "an image with a chunk seal_chunk cannot write must be refused";
  } catch (const srv::ServerError& e) {
    EXPECT_NE(std::string(e.what()).find("crafted/cpu"), std::string::npos)
        << e.what();
  }
  const std::string json = client.stats_json();
  EXPECT_NE(json.find("\"streams\":0"), std::string::npos) << json;
  EXPECT_EQ(store.streams(), 0u);
  server.stop();
}

TEST(Server, HandoffImportIsDurableWithStorage) {
  TempDir dir("handoff");
  mon::StripedRetentionStore src_store;
  srv::NyqmondServer src(src_store, nullptr);
  src.start();
  srv::NyqmonClient src_client("127.0.0.1", src.port());
  src_client.ingest("dev0/metric", 2.0, 0.0, wave(600, 0.7));
  const auto exported = src_client.handoff_export("dev0/metric");
  ASSERT_EQ(exported.streams, 1u);
  src.stop();

  {
    sto::StorageConfig storage_cfg;
    storage_cfg.dir = dir.path;
    storage_cfg.truncate_existing = true;
    sto::StorageManager storage(storage_cfg);
    mon::StripedRetentionStore dst_store;
    storage.record_geometry(mon::StoreConfig{});
    dst_store.set_ingest_sink(&storage);
    srv::NyqmondServer dst(dst_store, &storage);
    dst.start();
    srv::NyqmonClient dst_client("127.0.0.1", dst.port());
    const auto imported = dst_client.handoff_import(exported.segment);
    EXPECT_EQ(imported.streams, 1u);
    EXPECT_TRUE(imported.persisted);
    dst.stop();
  }

  // Cold start: the imported stream survives recovery.
  sto::StorageConfig attach;
  attach.dir = dir.path;
  sto::StorageManager manager(attach);
  mon::StripedRetentionStore recovered;
  manager.recover(recovered);
  ASSERT_TRUE(recovered.find_meta("dev0/metric").has_value());
  EXPECT_GT(recovered.find_meta("dev0/metric").value().ingested_samples, 0u);
}

// ------------------------------------------------------ query flags -------

TEST(Server, QueryWantMatchedReturnsLabels) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());
  client.ingest("b/metric", 1.0, 0.0, wave(64, 0.1));
  client.ingest("a/metric", 1.0, 0.0, wave(64, 0.2));

  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("*")
                                  .range(0.0, 64.0)
                                  .align(1.0)
                                  .build();

  // Default: the flag is off and the reply stays in the pre-flag shape.
  EXPECT_TRUE(client.query(spec).matched_labels.empty());

  const srv::QueryReply with = client.query(spec, /*want_matched=*/true);
  EXPECT_EQ(with.matched, 2u);
  EXPECT_EQ(with.matched_labels,
            (std::vector<std::string>{"a/metric", "b/metric"}));
  server.stop();
}

// ------------------------------------------------------- backpressure -----

TEST(Server, SlowClientIsBoundedAndEventuallyDropped) {
  mon::StripedRetentionStore store;
  srv::ServerConfig cfg;
  cfg.max_reply_queue_frames = 2;
  cfg.slow_client_timeout_ms = 100;
  srv::NyqmondServer server(store, nullptr, cfg);
  server.start();

  srv::NyqmonClient feeder("127.0.0.1", server.port());
  feeder.ingest("big/stream", 10.0, 0.0, wave(20000, 0.0));

  // A raw client with a tiny receive buffer pipelines queries with
  // ~160 KB answers and never reads. Enough of them (10 MB of replies)
  // outgrow even an autotuned kernel send buffer: the reply queue hits its
  // frame bound, the connection stalls (POLLIN suppressed — bounded
  // memory), and after slow_client_timeout_ms with no drain the client is
  // dropped.
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("big/*")
                                  .range(0.0, 2000.0)
                                  .align(0.1)
                                  .build();
  const auto request =
      srv::request_frame(srv::Verb::kQuery, srv::encode_query(spec));
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < 64; ++i)
    burst.insert(burst.end(), request.begin(), request.end());

  const int slow = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(slow, 0);
  const int rcvbuf = 4096;
  ::setsockopt(slow, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(slow, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_EQ(::send(slow, burst.data(), burst.size(), 0),
            static_cast<ssize_t>(burst.size()));

  wait_closed(server, 1);
  EXPECT_EQ(server.stats().slow_clients_dropped, 1u);
  EXPECT_GE(server.stats().backpressure_stalls, 1u);
  ::close(slow);

  // The drop is surgical: other clients were never blocked.
  EXPECT_NE(feeder.stats_json().find("\"streams\":1"), std::string::npos);
  server.stop();
}

// ------------------------------------------------ trace-context trailer --

TEST(Server, TraceContextTrailerIsPeeledOnEveryVerb) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());

  // A stamped request must behave exactly like an unstamped one: dispatch
  // peels the 21-byte trailer before any payload decoder runs (the
  // decoders enforce exact-remaining and would reject the extra bytes).
  const srv::TraceContext ctx{/*trace_id=*/0xabcdef12u, /*parent_span_id=*/7,
                              /*sampled=*/true};
  srv::IngestRequest ingest;
  ingest.stream = "dev/metric";
  ingest.rate_hz = 2.0;
  ingest.values = wave(64, 0.4);
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("dev/*")
                                  .range(0.0, 16.0)
                                  .align(1.0)
                                  .build();

  const std::pair<srv::Verb, std::vector<std::uint8_t>> requests[] = {
      {srv::Verb::kIngest, srv::encode_ingest(ingest)},
      {srv::Verb::kQuery, srv::encode_query(spec)},
      {srv::Verb::kStats, {}},
      {srv::Verb::kCheckpoint, {}},
      {srv::Verb::kMetrics, {}},
      {srv::Verb::kTrace, {}},
      {srv::Verb::kHandoff, srv::encode_handoff_export("dev/*")},
      {srv::Verb::kLogs, {}},
  };
  for (const auto& [verb, payload] : requests) {
    std::vector<std::uint8_t> stamped = payload;
    srv::append_trace_context(stamped, ctx);
    const auto body =
        client.request_raw(static_cast<std::uint8_t>(verb), stamped);
    ASSERT_FALSE(body.empty());
    EXPECT_EQ(body[0], static_cast<std::uint8_t>(srv::Status::kOk))
        << "verb " << static_cast<unsigned>(verb);
  }
  EXPECT_EQ(store.streams(), 1u);  // the stamped INGEST really landed
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  server.stop();
}

TEST(Server, TruncatedOrCorruptTrailerIsJustPayloadBytes) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());
  client.ingest("dev/metric", 2.0, 0.0, wave(64, 0.4));

  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("dev/*")
                                  .range(0.0, 16.0)
                                  .align(1.0)
                                  .build();
  const srv::TraceContext ctx{/*trace_id=*/1234, /*parent_span_id=*/5,
                              /*sampled=*/true};

  // A trailer cut one byte short is not detected: its bytes stay on the
  // payload and the QUERY decoder's exact-remaining check rejects them.
  std::vector<std::uint8_t> truncated = srv::encode_query(spec);
  srv::append_trace_context(truncated, ctx);
  truncated.pop_back();
  auto body = client.request_raw(static_cast<std::uint8_t>(srv::Verb::kQuery),
                                 truncated);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body[0], static_cast<std::uint8_t>(srv::Status::kError));

  // Right length, wrong magic: not misread as a context either.
  std::vector<std::uint8_t> corrupt = srv::encode_query(spec);
  srv::append_trace_context(corrupt, ctx);
  corrupt.back() ^= 0xff;
  body = client.request_raw(static_cast<std::uint8_t>(srv::Verb::kQuery),
                            corrupt);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body[0], static_cast<std::uint8_t>(srv::Status::kError));

  // trace_id 0 means "no context" and is never stripped, even with the
  // magic intact.
  std::vector<std::uint8_t> zero_id = srv::encode_query(spec);
  srv::append_trace_context(zero_id, srv::TraceContext{});
  body = client.request_raw(static_cast<std::uint8_t>(srv::Verb::kQuery),
                            zero_id);
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(body[0], static_cast<std::uint8_t>(srv::Status::kError));

  // The connection survived every malformed frame.
  EXPECT_EQ(client.query(spec).matched, 1u);
  server.stop();
}

TEST(Server, PayloadFreeVerbsTolerateNewPeerFlagBytes) {
  // Old-peer compat: a plain nyqmond receiving a router-era flags byte on
  // METRICS/TRACE (or any trailing bytes on the payload-free verbs) must
  // answer its own data rather than ERR — those handlers never read the
  // payload, so the fleet bit degrades to a local answer.
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());

  const std::vector<std::uint8_t> flag{0x01};
  for (const srv::Verb verb :
       {srv::Verb::kStats, srv::Verb::kCheckpoint, srv::Verb::kMetrics,
        srv::Verb::kTrace, srv::Verb::kLogs}) {
    const auto body =
        client.request_raw(static_cast<std::uint8_t>(verb), flag);
    ASSERT_FALSE(body.empty());
    EXPECT_EQ(body[0], static_cast<std::uint8_t>(srv::Status::kOk))
        << "verb " << static_cast<unsigned>(verb);
  }
  // The fleet-flagged METRICS is the plain exposition, not sectioned text.
  const std::string text = client.metrics_text(/*fleet=*/true);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_EQ(text.find("# == node"), std::string::npos);
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  server.stop();
}

// -------------------------------------------------------- structured logs --

TEST(Server, LogsVerbDrainsStructuredRecords) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());

  (void)client.logs_text();  // discard records earlier tests left behind
  // An unknown verb is a logged failure path: server.protocol_error.
  const auto err = client.request_raw(0x7d, {});
  ASSERT_FALSE(err.empty());
  EXPECT_EQ(err[0], static_cast<std::uint8_t>(srv::Status::kError));

  const std::string text = client.logs_text();
  EXPECT_EQ(text.rfind("nyqlog v1 records=", 0), 0u) << text;
  EXPECT_NE(text.find("level=error"), std::string::npos) << text;
  EXPECT_NE(text.find("event=server.protocol_error"), std::string::npos)
      << text;
  EXPECT_NE(text.find("reason=unknown_verb"), std::string::npos) << text;

  // Consuming: an immediate second drain returns an empty window.
  const std::string second = client.logs_text();
  EXPECT_EQ(second.rfind("nyqlog v1 records=0 ", 0), 0u) << second;
  EXPECT_GE(server.stats().logs_frames, 2u);
  server.stop();
}

// ---------------------------------------------------------- query EXPLAIN --

TEST(Server, QueryExplainAttributesLatencyToStages) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());
  client.ingest("dev/metric", 2.0, 0.0, wave(4096, 0.8));

  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("dev/*")
                                  .range(0.0, 2000.0)
                                  .align(0.5)
                                  .build();

  // Cold cache: the full pipeline breakdown.
  const srv::QueryReply reply = client.query(spec, false, /*want_explain=*/true);
  ASSERT_FALSE(reply.cache_hit);
  ASSERT_TRUE(reply.explain.has_value());
  const srv::QueryExplainBlock& ex = *reply.explain;
  EXPECT_GT(ex.total_ns, 0u);

  std::uint64_t sum = 0;
  std::vector<std::string> names;
  for (const srv::ExplainEntry& e : ex.stages) {
    names.push_back(e.stage);
    sum += e.ns;
  }
  for (const char* stage : {"match", "cache", "prune", "reconstruct",
                            "aggregate", "cache_store"})
    EXPECT_NE(std::find(names.begin(), names.end(), stage), names.end())
        << stage << " missing from the breakdown";
  // StageClock marks are contiguous, so the named stages account for at
  // least 90% of the measured total (the ISSUE acceptance bar).
  EXPECT_GE(sum * 10, ex.total_ns * 9)
      << "stages cover only " << sum << " of " << ex.total_ns << " ns";

  // Without the flag the reply stays in the pre-explain shape.
  EXPECT_FALSE(client.query(spec).explain.has_value());

  // A cache hit explains differently: the breakdown stops at the cache.
  const srv::QueryReply hit = client.query(spec, false, true);
  ASSERT_TRUE(hit.cache_hit);
  ASSERT_TRUE(hit.explain.has_value());
  ASSERT_FALSE(hit.explain->stages.empty());
  EXPECT_EQ(hit.explain->stages.back().stage, "cache");
  server.stop();
}

// ----------------------------------------------------------- frame cap ---

// A reply that would not fit one frame is refused with an ERR naming the
// frame cap, and the connection keeps serving.
TEST(Server, OverCapRepliesAreRefusedAndConnectionServesOn) {
  mon::StripedRetentionStore store;
  srv::ServerConfig cfg;
  cfg.max_frame_bytes = 4096;
  srv::NyqmondServer server(store, nullptr, cfg);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());
  client.ingest("dev/metric", 1.0, 0.0, wave(400, 0.3));

  // 1000 grid points: 8000 bytes of values alone.
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("dev/metric")
                                  .range(0.0, 400.0)
                                  .align(0.4)
                                  .build();
  try {
    (void)client.query(spec);
    FAIL() << "an over-cap QUERY reply must be refused";
  } catch (const srv::ServerError& e) {
    EXPECT_NE(std::string(e.what()).find("frame cap"), std::string::npos)
        << e.what();
  }
  ASSERT_GE(obs::Registry::instance().render_prometheus().size(), 4096u);
  try {
    (void)client.metrics_text();
    FAIL() << "an over-cap METRICS exposition must be refused";
  } catch (const srv::ServerError& e) {
    EXPECT_NE(std::string(e.what()).find("frame cap"), std::string::npos)
        << e.what();
  }
  EXPECT_NE(client.stats_json().find("\"streams\":1"), std::string::npos);
  server.stop();
}

// A QUERY whose aggregate label outgrows a str16 field (65534 '*' plus
// "m" becomes "avg(<selector>)", 65540 bytes) is answered ERR instead of
// with a wrapped length prefix, and the connection keeps serving.
TEST(Server, OverlongStr16ReplyFieldAnswersErrorAndServesOn) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());
  client.ingest("a/m", 1.0, 0.0, wave(64, 0.0));

  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select(std::string(65534, '*') + "m")
                                  .range(0.0, 64.0)
                                  .align(1.0)
                                  .aggregate(qry::Aggregation::kAvg)
                                  .build();
  EXPECT_THROW((void)client.query(spec), srv::ServerError);
  EXPECT_NE(client.stats_json().find("\"streams\":1"), std::string::npos);
  server.stop();
}

// A QUERY whose output grid would hold 10^9 points is answered ERR naming
// the grid limit before anything is allocated, and the connection keeps
// serving.
TEST(Server, OversizedQueryGridAnswersErrorAndServesOn) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());
  client.ingest("a/m", 1.0, 0.0, wave(64, 0.0));

  qry::QuerySpec spec;  // filled by hand: QueryBuilder::build() refuses it
  spec.selector = "a/m";
  spec.t_begin = 0.0;
  spec.t_end = 1e9;
  spec.step_s = 1.0;
  try {
    (void)client.query(spec);
    FAIL() << "an oversized QUERY grid must be refused";
  } catch (const srv::ServerError& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(qry::kMaxGridPoints)),
              std::string::npos)
        << e.what();
  }
  EXPECT_NE(client.stats_json().find("\"streams\":1"), std::string::npos);
  server.stop();
}

// A failed check answers its expression and message. Its source location
// goes to the server's log, never to a client: no file, line or directory
// of the server's build.
TEST(Server, CheckRefusalNamesNoSourceLocation) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());
  client.ingest("a/m", 1.0, 0.0, wave(64, 0.0));
  (void)client.logs_text();  // discard records earlier tests left behind

  qry::QuerySpec spec;  // filled by hand: QueryBuilder::build() refuses it
  spec.selector = "a/m";
  spec.t_begin = 0.0;
  spec.t_end = 1e9;
  spec.step_s = 1.0;
  const std::string source_dir =
      fs::path(__FILE__).parent_path().parent_path().string();
  try {
    (void)client.query(spec);
    FAIL() << "an oversized QUERY grid must be refused";
  } catch (const srv::ServerError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition failed: "), std::string::npos) << what;
    EXPECT_EQ(what.find(".cc:"), std::string::npos) << what;
    EXPECT_EQ(what.find("src/"), std::string::npos) << what;
    if (!source_dir.empty()) {
      EXPECT_EQ(what.find(source_dir), std::string::npos) << what;
    }
  }
  const std::string logs = client.logs_text();
  EXPECT_NE(logs.find("event=server.dispatch_error"), std::string::npos)
      << logs;
  EXPECT_NE(logs.find("spec.cc:"), std::string::npos) << logs;
  server.stop();
}

// Counts in a QUERY reply come off the wire: one that declares more
// entries than the payload holds makes the reply malformed (nullopt), and
// the decoder must not reserve memory for them first.
TEST(Protocol, QueryReplyCountsBeyondThePayloadAreMalformed) {
  // 13 bytes: cache_hit, matched, reconstructed, n_series = 2^32 - 1.
  std::vector<std::uint8_t> series;
  sto::put_u8(series, 0);
  sto::put_u32(series, 0);
  sto::put_u32(series, 0);
  sto::put_u32(series, 0xffffffffu);
  sto::ByteReader series_reader(series);
  EXPECT_FALSE(srv::decode_query_reply(series_reader, 0).has_value());

  // No series, then a matched-labels block declaring 2^32 - 1 labels.
  std::vector<std::uint8_t> matched;
  sto::put_u8(matched, 0);
  sto::put_u32(matched, 0);
  sto::put_u32(matched, 0);
  sto::put_u32(matched, 0);
  sto::put_u32(matched, 0xffffffffu);
  sto::ByteReader matched_reader(matched);
  EXPECT_FALSE(
      srv::decode_query_reply(matched_reader, srv::kQueryWantMatched)
          .has_value());
}

// -------------------------------------------------------------- f64 runs --

/// Values whose bits a codec can get wrong: −0.0, a NaN with a payload, a
/// denormal and ±inf, among ordinary ones.
std::vector<double> odd_values() {
  return {1.5,
          -0.0,
          std::bit_cast<double>(std::uint64_t{0x7ff80000deadbeefull}),
          std::numeric_limits<double>::denorm_min(),
          4.9e-310,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          -1e300};
}

/// The encoding every f64 on the wire keeps, one value at a time: its
/// IEEE-754 bits, least significant byte first.
void put_f64_reference(std::vector<std::uint8_t>& b, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int shift = 0; shift < 64; shift += 8)
    b.push_back(static_cast<std::uint8_t>(bits >> shift));
}

/// Overwrite the little-endian u32 at `at`.
void set_u32(std::vector<std::uint8_t>& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Decode from a heap buffer of exactly the payload's size, so that a read
/// past its end is a heap overflow under ASan.
template <typename Decode>
auto decode_exact(const std::vector<std::uint8_t>& bytes, Decode decode) {
  const std::unique_ptr<std::uint8_t[]> exact(new std::uint8_t[bytes.size()]);
  std::copy(bytes.begin(), bytes.end(), exact.get());
  sto::ByteReader r(std::span<const std::uint8_t>(exact.get(), bytes.size()));
  return decode(r);
}

TEST(Protocol, IngestKeepsPerValueBytes) {
  const srv::IngestRequest req{"lab/odd", 2.5, -0.0, odd_values()};
  std::vector<std::uint8_t> want;
  sto::put_string(want, req.stream);
  put_f64_reference(want, req.rate_hz);
  put_f64_reference(want, req.t0);
  sto::put_u32(want, static_cast<std::uint32_t>(req.values.size()));
  for (const double v : req.values) put_f64_reference(want, v);
  const std::vector<std::uint8_t> bytes = srv::encode_ingest(req);
  EXPECT_EQ(bytes, want);

  const auto back = decode_exact(bytes, srv::decode_ingest);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->stream, req.stream);
  EXPECT_EQ(back->rate_hz, req.rate_hz);
  EXPECT_TRUE(std::signbit(back->t0));
  EXPECT_TRUE(same_values(back->values, req.values));

  // A count declaring more values than the payload holds is refused.
  const std::size_t count_at = 2 + req.stream.size() + 16;
  for (const std::uint32_t count :
       {static_cast<std::uint32_t>(req.values.size() + 1), 0xffffffffu}) {
    std::vector<std::uint8_t> over = bytes;
    set_u32(over, count_at, count);
    EXPECT_FALSE(decode_exact(over, srv::decode_ingest).has_value()) << count;
  }
}

TEST(Protocol, QueryReplyKeepsPerValueBytes) {
  qry::QueryResult result;
  result.matched = {"a/odd", "b/pruned", "c/two"};
  result.reconstructed = {"a/odd", "c/two"};
  result.series.push_back(
      {"a/odd", sig::RegularSeries(
                    -0.0, std::numeric_limits<double>::denorm_min(),
                    odd_values())});
  result.series.push_back(
      {"c/two", sig::RegularSeries(1.7e9, 0.5, {2.0, -0.0})});
  const srv::QueryExplainBlock explain{1234, {{"match", 5}, {"merge", 7}}};

  for (const bool with_matched : {false, true}) {
    for (const bool with_explain : {false, true}) {
      const std::uint8_t flags =
          (with_matched ? srv::kQueryWantMatched : 0) |
          (with_explain ? srv::kQueryWantExplain : 0);
      std::vector<std::uint8_t> want;
      sto::put_u8(want, 1);
      sto::put_u32(want, 3);
      sto::put_u32(want, 2);
      sto::put_u32(want, 2);
      for (const qry::QuerySeries& s : result.series) {
        sto::put_string(want, s.label);
        put_f64_reference(want, s.series.t0());
        put_f64_reference(want, s.series.dt());
        sto::put_u32(want, static_cast<std::uint32_t>(s.series.size()));
        for (const double v : s.series.values()) put_f64_reference(want, v);
      }
      if (with_matched) {
        sto::put_u32(want, 3);
        for (const std::string& name : result.matched)
          sto::put_string(want, name);
      }
      if (with_explain) {
        sto::put_u64(want, explain.total_ns);
        sto::put_u8(want, 2);
        for (const srv::ExplainEntry& e : explain.stages) {
          sto::put_string(want, e.stage);
          sto::put_u64(want, e.ns);
        }
      }
      const std::vector<std::uint8_t> bytes = srv::encode_query_reply(
          result, true, with_matched, with_explain ? &explain : nullptr);
      EXPECT_EQ(bytes, want) << "flags " << int(flags);

      const auto back = decode_exact(bytes, [&](sto::ByteReader& r) {
        return srv::decode_query_reply(r, flags);
      });
      ASSERT_TRUE(back.has_value()) << "flags " << int(flags);
      ASSERT_EQ(back->series.size(), 2u);
      for (std::size_t i = 0; i < 2; ++i) {
        const sig::RegularSeries& got = back->series[i].series;
        const sig::RegularSeries& sent = result.series[i].series;
        EXPECT_EQ(back->series[i].label, result.series[i].label);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.t0()),
                  std::bit_cast<std::uint64_t>(sent.t0()));
        EXPECT_EQ(got.dt(), sent.dt());
        EXPECT_TRUE(same_values(got.values(), sent.values()));
      }
      EXPECT_EQ(back->matched_labels,
                with_matched ? result.matched : std::vector<std::string>{});
      EXPECT_EQ(back->explain.has_value(), with_explain);
    }
  }

  // The last series declaring more values than the payload holds is
  // refused, with or without a block after it.
  for (const bool with_matched : {false, true}) {
    const std::vector<std::uint8_t> bytes =
        srv::encode_query_reply(result, false, with_matched);
    // The second series' count: past the 13-byte header, the first series
    // (label, t0, dt, count, 8 values) and the second's label, t0 and dt.
    const std::size_t count_at = 13 + (2 + 5 + 20 + 8 * 8) + (2 + 5 + 16);
    for (const std::uint32_t count : {3u, 0xffffffffu}) {
      std::vector<std::uint8_t> over = bytes;
      set_u32(over, count_at, count);
      EXPECT_FALSE(decode_exact(over, [&](sto::ByteReader& r) {
                     return srv::decode_query_reply(
                         r, with_matched ? srv::kQueryWantMatched : 0);
                   }).has_value())
          << count;
    }
  }
}

// A series whose grid step is 0, negative or NaN is a malformed reply,
// refused like any other, not a bad argument thrown from RegularSeries.
TEST(Protocol, QueryReplyRefusesANonPositiveStep) {
  for (const double dt :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<std::uint8_t> bytes;
    sto::put_u8(bytes, 0);
    sto::put_u32(bytes, 1);
    sto::put_u32(bytes, 1);
    sto::put_u32(bytes, 1);
    sto::put_string(bytes, "a/odd");
    put_f64_reference(bytes, 0.0);
    put_f64_reference(bytes, dt);
    sto::put_u32(bytes, 2);
    put_f64_reference(bytes, 1.0);
    put_f64_reference(bytes, 2.0);
    EXPECT_FALSE(decode_exact(bytes, [](sto::ByteReader& r) {
                   return srv::decode_query_reply(r, 0);
                 }).has_value())
        << dt;
  }
}

// ------------------------------------------------------------- call_ok ---

TEST(Server, CallOkRoundTripsOkAndErr) {
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());

  // OK path: the reply payload, here STATS's JSON.
  const auto stats = client.call_ok(srv::Verb::kStats);
  EXPECT_NE(std::string(stats.begin(), stats.end()).find("\"streams\""),
            std::string::npos);

  // ERR path: an empty payload is a malformed QUERY.
  EXPECT_THROW((void)client.call_ok(srv::Verb::kQuery), srv::ServerError);
  server.stop();
}

// Each client method adds a flag byte only when a flag is set, so a request
// without flags is byte-identical to one from a client that predates them.
TEST(Server, ClientRequestsCarryFlagBytesOnlyWhenSet) {
  std::mutex mu;
  std::vector<std::vector<std::uint8_t>> payloads;
  srv::ServerConfig cfg;
  cfg.intercept = [&](srv::Verb, sto::ByteReader& reader)
      -> std::optional<std::vector<std::uint8_t>> {
    sto::ByteReader copy = reader;  // the built-in handler reads `reader`
    const auto rest = copy.get_bytes(copy.remaining());
    const std::lock_guard<std::mutex> lock(mu);
    payloads.emplace_back(rest.begin(), rest.end());
    return std::nullopt;
  };
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr, cfg);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());
  client.ingest("dev/metric", 1.0, 0.0, wave(16, 0.1));
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("dev/metric")
                                  .range(0.0, 16.0)
                                  .align(1.0)
                                  .build();
  (void)client.query(spec);
  (void)client.query(spec, /*want_matched=*/true);
  (void)client.query(spec, false, /*want_explain=*/true);
  (void)client.metrics_text();
  (void)client.metrics_text(/*fleet=*/true);
  (void)client.trace_json();
  (void)client.trace_json(/*fleet=*/true);
  server.stop();

  srv::IngestRequest ingest;
  ingest.stream = "dev/metric";
  ingest.rate_hz = 1.0;
  ingest.values = wave(16, 0.1);
  const std::vector<std::vector<std::uint8_t>> expected = {
      srv::encode_ingest(ingest),
      srv::encode_query(spec),
      srv::encode_query(spec, srv::kQueryWantMatched),
      srv::encode_query(spec, srv::kQueryWantExplain),
      {},
      {srv::kMetricsFleet},
      {},
      {srv::kTraceFleet}};
  EXPECT_EQ(payloads, expected);
  // No flag byte: u16 selector length + selector, three f64, two u8.
  ASSERT_GE(payloads.size(), 2u);
  EXPECT_EQ(payloads[1].size(), 2 + spec.selector.size() + 3 * 8 + 2);
}

// ----------------------------------------------------- multi-reactor ------

// One rule sets the reactor count of a backend and of a router front: a
// server left at the default resolves it to one per online core, and
// config().reactors reports the resolved count from construction on.
TEST(Server, DefaultRunsOneReactorPerOnlineCore) {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  mon::StripedRetentionStore store;
  srv::NyqmondServer backend(store, nullptr);
  EXPECT_EQ(backend.config().reactors, cores);
  backend.start();
  EXPECT_EQ(backend.config().reactors, cores);

  clu::RouterConfig router_cfg;
  router_cfg.cluster.nodes.push_back({"node0", "127.0.0.1", backend.port()});
  clu::NyqmonRouter router(router_cfg);
  router.start();
  EXPECT_EQ(router.reactors(), cores);
  router.stop();
  backend.stop();
}

// STATS names the resolved reactor count, so `nyqmon_ctl stats` shows what
// the default became on a live node.
TEST(Server, StatsReportsTheResolvedReactorCount) {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  for (const std::size_t asked : {std::size_t{0}, std::size_t{4}}) {
    mon::StripedRetentionStore store;
    srv::ServerConfig cfg;
    cfg.reactors = asked;
    srv::NyqmondServer server(store, nullptr, cfg);
    server.start();
    srv::NyqmonClient client("127.0.0.1", server.port());
    const std::string json = client.stats_json();
    const std::string field = std::string("\"reactors\":")
                                  .append(std::to_string(asked == 0 ? cores
                                                                    : asked))
                                  .append("}");
    EXPECT_NE(json.find(field), std::string::npos) << json;
    server.stop();
  }
}

// Every dispatched frame records how long it waited behind its reactor's
// earlier work in the same poll(2) round: one sample per frame.
TEST(Server, EachDispatchedFrameRecordsOneDispatchWait) {
  const obs::Histogram& wait =
      obs::Registry::instance().histogram("nyqmon_reactor_dispatch_wait_ns");
  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());
  const std::uint64_t before = wait.snapshot().count;
  client.stats_json();
  EXPECT_EQ(wait.snapshot().count, before + 1);
  client.ingest("wait/metric", 1.0, 0.0, wave(8, 0.0));
  EXPECT_EQ(wait.snapshot().count, before + 2);
  server.stop();
}

// A request sent after another connection's reply arrived sees that
// request's effects, whichever reactors own the two connections. Four
// connections, which round-robin dealing puts on different reactors when
// the host has the cores, take turns: INGEST on one, then, after its OK,
// QUERY on the next. Each query asks the same spec, so a result cached
// before the INGEST must not answer it, and must return every acknowledged
// value.
TEST(Server, DefaultReactorsKeepCausalOrderAcrossConnections) {
  constexpr std::size_t kConns = 4;
  constexpr std::size_t kRounds = 300;
  constexpr std::size_t kBatch = 4;
  // One chunk holds every round's values: they stay raw in the hot buffer,
  // so the reply is the ingested values bit for bit.
  mon::StoreConfig store_cfg;
  store_cfg.chunk_samples = 2 * kRounds * kBatch;
  mon::StripedRetentionStore store(store_cfg);
  srv::NyqmondServer server(store, nullptr);
  server.start();
  std::vector<std::unique_ptr<srv::NyqmonClient>> conns;
  for (std::size_t c = 0; c < kConns; ++c)
    conns.push_back(
        std::make_unique<srv::NyqmonClient>("127.0.0.1", server.port()));
  const qry::QuerySpec spec =
      qry::QueryBuilder()
          .select("causal/metric")
          .range(0.0, static_cast<double>(kRounds * kBatch))
          .align(1.0)
          .build();

  std::vector<double> acknowledged;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::vector<double> batch(kBatch, static_cast<double>(round));
    const std::uint64_t total =
        conns[round % kConns]->ingest("causal/metric", 1.0, 0.0, batch);
    acknowledged.insert(acknowledged.end(), batch.begin(), batch.end());
    ASSERT_EQ(total, acknowledged.size());
    const srv::QueryReply reply = conns[(round + 1) % kConns]->query(spec);
    ASSERT_EQ(reply.series.size(), 1u) << "round " << round;
    const std::span<const double> got = reply.series[0].series.span();
    ASSERT_EQ(got.size(), kRounds * kBatch) << "round " << round;
    ASSERT_TRUE(same_values(got.first(acknowledged.size()), acknowledged))
        << "round " << round;
  }
  server.stop();
}

// The same concurrent ingest+query workload as the four-client test, but
// served by four reactor shards: per-connection ordering must hold on
// every shard, and the quiesced end state must match a local engine
// bit-identically.
TEST(Server, MultiReactorConcurrentClientsAreDeterministic) {
  mon::StripedRetentionStore store;
  srv::ServerConfig server_cfg;
  server_cfg.reactors = 4;
  srv::NyqmondServer server(store, nullptr, server_cfg);
  server.start();

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kBatches = 8;
  constexpr std::size_t kBatch = 64;
  std::vector<std::thread> threads;
  std::atomic<std::size_t> failures{0};
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        srv::NyqmonClient client("127.0.0.1", server.port());
        const std::string stream = "client" + std::to_string(c) + "/metric";
        const auto values = wave(kBatches * kBatch, static_cast<double>(c));
        for (std::size_t b = 0; b < kBatches; ++b) {
          const std::uint64_t total = client.ingest(
              stream, 1.0, 0.0,
              std::span<const double>(values).subspan(b * kBatch, kBatch));
          // Per-connection ordering: this connection's appends are
          // sequential regardless of which reactor owns it.
          if (total != (b + 1) * kBatch) ++failures;
          const srv::QueryReply reply =
              client.query(qry::QueryBuilder()
                               .select("client*/metric")
                               .range(0.0, double(kBatches * kBatch))
                               .align(4.0)
                               .aggregate(qry::Aggregation::kSum)
                               .build());
          if (reply.series.size() != 1) ++failures;
        }
      } catch (...) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0u);
  EXPECT_GE(server.stats().connections_accepted, kClients);

  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("client*/metric")
                                  .range(0.0, double(kBatches * kBatch))
                                  .align(2.0)
                                  .aggregate(qry::Aggregation::kP95)
                                  .build();
  srv::NyqmonClient a("127.0.0.1", server.port());
  const auto reply_a = a.query(spec);
  ASSERT_EQ(reply_a.series.size(), 1u);
  EXPECT_EQ(reply_a.matched, kClients);

  qry::QueryEngine local(store);
  const auto direct = local.run(spec);
  EXPECT_TRUE(same_values(direct.result->series[0].series.span(),
                          reply_a.series[0].series.span()));
  server.stop();
}

// CHECKPOINT must quiesce every reactor: with 4 shards ingesting at full
// tilt and a durable tier attached, concurrent CHECKPOINTs may never race
// an INGEST dispatch between the flush snapshot and the WAL swap, and the
// recovered state must hold every acknowledged batch.
TEST(Server, MultiReactorCheckpointQuiescesConcurrentIngest) {
  TempDir dir("reactor_quiesce");
  sto::StorageConfig storage_cfg;
  storage_cfg.dir = dir.path;
  storage_cfg.truncate_existing = true;
  mon::StoreConfig store_cfg;
  store_cfg.chunk_samples = 64;
  {
    mon::StripedRetentionStore store(store_cfg, 4);
    sto::StorageManager storage(storage_cfg);
    storage.record_geometry(store_cfg);
    store.set_ingest_sink(&storage);

    srv::ServerConfig server_cfg;
    server_cfg.reactors = 4;
    srv::NyqmondServer server(store, &storage, server_cfg);
    server.start();

    constexpr std::size_t kClients = 6;
    constexpr std::size_t kBatches = 12;
    constexpr std::size_t kBatch = 32;
    std::vector<std::thread> threads;
    std::atomic<std::size_t> failures{0};
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          srv::NyqmonClient client("127.0.0.1", server.port());
          const std::string stream = "q" + std::to_string(c) + "/metric";
          const auto values =
              wave(kBatches * kBatch, static_cast<double>(c));
          for (std::size_t b = 0; b < kBatches; ++b) {
            client.ingest(
                stream, 1.0, 0.0,
                std::span<const double>(values).subspan(b * kBatch, kBatch));
            // Half the clients also fire CHECKPOINT mid-ingest, so
            // quiesce barriers overlap with live dispatch on every
            // reactor (and with each other).
            if (c % 2 == 0) {
              const srv::CheckpointReply ck = client.checkpoint();
              if (!ck.persisted) ++failures;
            }
          }
        } catch (...) {
          ++failures;
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0u);
    server.stop();  // final quiesced checkpoint
  }

  // Recover from disk: every acknowledged batch must be there.
  sto::StorageConfig attach;
  attach.dir = dir.path;
  sto::StorageManager manager(attach);
  mon::StripedRetentionStore recovered(store_cfg, 4);
  const auto rec = manager.recover(recovered);
  EXPECT_EQ(rec.crc_skipped_blocks, 0u);
  for (std::size_t c = 0; c < 6; ++c) {
    const std::string stream =
        std::string("q").append(std::to_string(c)).append("/metric");
    EXPECT_EQ(recovered.find_meta(stream).value().ingested_samples, 12u * 32u)
        << stream;
  }
}

// INGEST auto-creates a stream on first use, and connections owned by
// different reactors may send a new stream's first frame at the same
// moment: every such frame must be answered OK, and the WAL must log
// exactly one create per stream. A first frame without a rate still
// answers ERR and creates nothing.
TEST(Server, ConcurrentFirstIngestsCreateEachStreamOnce) {
  TempDir dir("first_ingest_race");
  sto::StorageConfig storage_cfg;
  storage_cfg.dir = dir.path;
  storage_cfg.truncate_existing = true;
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRounds = 8;
  constexpr std::size_t kStreams = 300;
  constexpr std::size_t kBatch = 64;
  {
    sto::StorageManager storage(storage_cfg);
    // One stripe: every stream sits behind one lock, so the reactors
    // contend on it and a lookup-then-create gap, when there is one, is
    // hit within a few rounds.
    mon::StripedRetentionStore store({}, 1);
    storage.record_geometry(mon::StoreConfig{});
    store.set_ingest_sink(&storage);
    srv::ServerConfig server_cfg;
    server_cfg.reactors = 4;
    // No durable tier handed to the server: stop() takes no checkpoint, so
    // every create this run logged stays in the WAL.
    srv::NyqmondServer server(store, nullptr, server_cfg);
    server.start();

    std::vector<std::unique_ptr<srv::NyqmonClient>> clients;
    for (std::size_t c = 0; c < kClients; ++c)
      clients.push_back(
          std::make_unique<srv::NyqmonClient>("127.0.0.1", server.port()));
    EXPECT_THROW(clients[0]->ingest("norate/metric", 0.0, 0.0, wave(kBatch, 0)),
                 srv::ServerError);
    EXPECT_FALSE(store.find_meta("norate/metric").has_value());

    // Each round, every client walks the same list of new streams, so the
    // leading clients reach each stream's first frame together.
    std::atomic<std::size_t> failures{0};
    for (std::size_t round = 0; round < kRounds; ++round) {
      std::vector<std::string> names;
      for (std::size_t s = 0; s < kStreams; ++s) {
        char name[32];
        std::snprintf(name, sizeof(name), "r%zu-%zu/metric", round, s);
        names.emplace_back(name);
      }
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          const auto values = wave(kBatch, static_cast<double>(c));
          for (const auto& name : names) {
            try {
              clients[c]->ingest(name, 1.0, 0.0, values);
            } catch (const std::exception&) {
              ++failures;
            }
          }
        });
      }
      for (auto& t : threads) t.join();
      for (const auto& name : names)
        EXPECT_EQ(store.find_meta(name).value().ingested_samples,
                  kClients * kBatch)
            << name;
    }
    EXPECT_EQ(failures.load(), 0u);
    server.stop();
  }

  std::string wal_file;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0) wal_file = entry.path().string();
  }
  ASSERT_FALSE(wal_file.empty());
  std::map<std::string, std::size_t> creates;
  sto::WriteAheadLog::replay(wal_file, [&](const sto::WalRecord& r) {
    if (r.type == sto::WalRecord::Type::kCreate) ++creates[r.stream];
  });
  EXPECT_EQ(creates.size(), kRounds * kStreams);  // none for "norate/metric"
  for (const auto& [name, count] : creates) EXPECT_EQ(count, 1u) << name;
}

// A HANDOFF import is all or nothing even when another reactor's first
// INGEST of an imported name lands while the import runs. Each round
// imports a segment of new streams while two more connections send first
// INGESTs for the same names in reverse order (so they meet the import's
// last names first), after a stagger that sweeps the import's duration.
// Either the import answers OK and every stream holds its imported samples
// plus both batches, or it is refused and no stream holds an imported one.
TEST(Server, HandoffImportIsAtomicAgainstConcurrentFirstIngest) {
  constexpr std::size_t kRounds = 80;
  constexpr std::size_t kStreams = 200;
  constexpr std::size_t kImported = 8;
  constexpr std::size_t kBatch = 4;
  // One stripe: the import and both writers contend on one lock.
  mon::StripedRetentionStore store({}, 1);
  srv::ServerConfig server_cfg;
  server_cfg.reactors = 4;
  srv::NyqmondServer server(store, nullptr, server_cfg);
  server.start();
  srv::NyqmonClient importer("127.0.0.1", server.port());
  srv::NyqmonClient writer0("127.0.0.1", server.port());
  srv::NyqmonClient writer1("127.0.0.1", server.port());
  srv::NyqmonClient* writers[] = {&writer0, &writer1};

  // kStreams new names under `prefix`, and a segment image holding each.
  const auto make_import = [&](const std::string& prefix,
                               std::vector<std::string>& names) {
    mon::StripedRetentionStore source;
    for (std::size_t s = 0; s < kStreams; ++s) {
      char name[48];
      std::snprintf(name, sizeof(name), "%s-%03zu/metric", prefix.c_str(), s);
      names.emplace_back(name);
      source.create_stream(name, 1.0);
      source.append_series(name, wave(kImported, static_cast<double>(s)));
    }
    sto::SegmentWriter segment;
    const mon::ReadSnapshot snap = source.acquire_snapshot();
    for (const std::string& name : names)
      segment.add_stream(snap.export_stream(name));
    return segment.bytes();
  };

  // The stagger sweeps twice what one import takes in this build, so the
  // writers' first frames land before, during and after the import.
  std::vector<std::string> warm_names;
  const std::vector<std::uint8_t> warm = make_import("warm", warm_names);
  const auto t0 = std::chrono::steady_clock::now();
  importer.handoff_import(warm);
  const auto import_time = std::chrono::steady_clock::now() - t0;

  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<std::string> names;
    const std::vector<std::uint8_t> segment =
        make_import("r" + std::to_string(round), names);
    bool imported = false;
    std::vector<srv::ErrorDetail> conflicts;
    const auto stagger = import_time * static_cast<int>(round % 40) / 20;
    std::vector<std::thread> threads;
    threads.emplace_back([&] {
      try {
        importer.handoff_import(segment);
        imported = true;
      } catch (const srv::ServerError& e) {
        EXPECT_NE(std::string(e.what()).find("handoff import refused"),
                  std::string::npos)
            << e.what();
        conflicts = e.details();
      }
    });
    for (srv::NyqmonClient* writer : writers)
      threads.emplace_back([&, writer] {
        std::this_thread::sleep_for(stagger);
        try {
          for (auto it = names.rbegin(); it != names.rend(); ++it)
            writer->ingest(*it, 1.0, 0.0, wave(kBatch, 0.5));
        } catch (const std::exception& e) {
          ADD_FAILURE() << e.what();
        }
      });
    for (std::thread& t : threads) t.join();

    if (!imported) {
      EXPECT_FALSE(conflicts.empty()) << "round " << round;
    }
    const std::size_t expected = (imported ? kImported : 0) + 2 * kBatch;
    for (const std::string& name : names)
      ASSERT_EQ(store.find_meta(name).value().ingested_samples, expected)
          << name << (imported ? " after an import" : " after a refusal");
  }
  server.stop();
}

TEST(Server, TraceVerbDisabledReturnsEmptyCapture) {
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  rec.set_enabled(false);
  rec.drain();

  mon::StripedRetentionStore store;
  srv::NyqmondServer server(store, nullptr);
  server.start();
  srv::NyqmonClient client("127.0.0.1", server.port());
  const std::string json = client.trace_json();
  server.stop();
  EXPECT_EQ(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}") << json;
}

}  // namespace
