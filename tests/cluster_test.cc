// Cluster layer: consistent-hash ring determinism/serialization/stability,
// cross-shard merge semantics, and fleet-level end-to-end checks — the same
// data behind a 1-node and a 4-node router answers every selector
// bit-identically (including after a segment handoff duplicated streams
// across nodes, and with several connections querying at once beside an
// ingesting one), an exact selector asks its ring owner alone yet answers
// like a glob over the same stream, and a killed backend turns into a
// prompt ERR-with-detail partial-failure report instead of a hang.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/client.h"
#include "cluster/hash.h"
#include "cluster/router.h"
#include "monitor/striped_store.h"
#include "obs/trace.h"
#include "query/builder.h"
#include "query/merge.h"
#include "query/selector.h"
#include "server/client.h"
#include "server/server.h"

namespace {

using namespace nyqmon;

std::vector<clu::NodeDesc> test_nodes(std::size_t n) {
  std::vector<clu::NodeDesc> nodes;
  for (std::size_t i = 0; i < n; ++i)
    nodes.push_back({"node" + std::to_string(i), "127.0.0.1",
                     static_cast<std::uint16_t>(9000 + i)});
  return nodes;
}

std::vector<std::string> test_keys(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    keys.push_back("dev" + std::to_string(i % 97) + "/metric" +
                   std::to_string(i));
  return keys;
}

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

// -------------------------------------------------------------------- ring --

TEST(HashRing, OwnershipIsDeterministicAndComplete) {
  const clu::HashRing a(test_nodes(4), 64);
  const clu::HashRing b(test_nodes(4), 64);
  for (const std::string& key : test_keys(500)) {
    const std::size_t owner = a.owner(key);
    ASSERT_LT(owner, 4u);
    EXPECT_EQ(owner, b.owner(key)) << key;  // same inputs, same placement
  }
  // Every node owns a non-degenerate share, and shares cover the keyspace.
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GT(a.keyspace_share(i), 0.01);
    total += a.keyspace_share(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(HashRing, DescribeParsesBackIdentically) {
  const clu::HashRing ring(test_nodes(3), 16);
  const std::string text = ring.describe();
  EXPECT_NE(text.find("nyqring v1"), std::string::npos);
  EXPECT_NE(text.find("vnodes 16"), std::string::npos);

  const clu::HashRing parsed = clu::HashRing::parse(text);
  ASSERT_EQ(parsed.size(), ring.size());
  EXPECT_EQ(parsed.vnodes(), ring.vnodes());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(parsed.nodes()[i].id, ring.nodes()[i].id);
    EXPECT_EQ(parsed.nodes()[i].host, ring.nodes()[i].host);
    EXPECT_EQ(parsed.nodes()[i].port, ring.nodes()[i].port);
  }
  for (const std::string& key : test_keys(500))
    EXPECT_EQ(parsed.owner(key), ring.owner(key)) << key;
  EXPECT_EQ(parsed.describe(), text);  // canonical: round-trips bit-identically
}

TEST(HashRing, RejectsMalformedInput) {
  EXPECT_THROW(clu::HashRing(test_nodes(2), 0), std::invalid_argument);
  EXPECT_THROW(clu::HashRing({}, 8), std::invalid_argument);
  auto dup = test_nodes(2);
  dup[1].id = dup[0].id;
  EXPECT_THROW(clu::HashRing(dup, 8), std::invalid_argument);
  EXPECT_THROW(clu::HashRing::parse("not a ring\n"), std::invalid_argument);
  EXPECT_THROW(clu::HashRing::parse("nyqring v1\nvnodes 0\nnode a h:1\n"),
               std::invalid_argument);
}

TEST(HashRing, AddingANodeMovesOnlyItsShare) {
  const clu::HashRing before(test_nodes(4), 64);
  const clu::HashRing after(test_nodes(5), 64);  // node4 joins
  const auto keys = test_keys(2000);

  std::size_t moved = 0;
  for (const std::string& key : keys) {
    const std::size_t old_owner = before.owner(key);
    const std::size_t new_owner = after.owner(key);
    if (old_owner != new_owner) {
      // Consistent hashing's contract: a key only ever moves TO the
      // joining node — never gets reshuffled between surviving nodes.
      EXPECT_EQ(after.nodes()[new_owner].id, "node4") << key;
      ++moved;
    }
  }
  // Expected ~1/5 of keys move (the joiner's share); allow generous slack
  // for vnode placement variance.
  const double fraction =
      static_cast<double>(moved) / static_cast<double>(keys.size());
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.40);
  EXPECT_NEAR(fraction, after.keyspace_share(4), 0.10);
}

// ------------------------------------------------------------------- merge --

qry::QuerySpec merge_spec(qry::Aggregation agg) {
  return qry::QueryBuilder()
      .select("*")
      .range(0.0, 8.0)
      .align(1.0)
      .aggregate(agg)
      .build();
}

qry::QuerySeries series_of(const std::string& label, double seed,
                           std::size_t n) {
  return {label, sig::RegularSeries(0.0, 1.0, wave(n, seed))};
}

TEST(ShardMerge, DedupesAndOrdersLikeOneEngine) {
  const auto spec = merge_spec(qry::Aggregation::kNone);
  const std::size_t n = spec.grid_points();
  // Shard 0 holds {a, c}; shard 1 holds {b, c} — c is mid-handoff, both
  // copies bit-identical.
  std::vector<qry::ShardSlice> slices(2);
  slices[0].matched = {"s/a", "s/c"};
  slices[0].series = {series_of("s/a", 0.1, n), series_of("s/c", 0.3, n)};
  slices[1].matched = {"s/b", "s/c"};
  slices[1].series = {series_of("s/b", 0.2, n), series_of("s/c", 0.3, n)};

  const qry::MergedQuery merged = qry::merge_shard_slices(spec, slices);
  EXPECT_EQ(merged.matched,
            (std::vector<std::string>{"s/a", "s/b", "s/c"}));
  EXPECT_EQ(merged.reconstructed, merged.matched);
  EXPECT_EQ(merged.duplicate_streams, 1u);
  ASSERT_EQ(merged.series.size(), 3u);
  EXPECT_EQ(merged.series[0].label, "s/a");
  EXPECT_EQ(merged.series[1].label, "s/b");
  EXPECT_EQ(merged.series[2].label, "s/c");
  EXPECT_TRUE(same_values(merged.series[2].series.span(),
                          series_of("s/c", 0.3, n).series.span()));
}

TEST(ShardMerge, AggregatesWithTheEnginesReduction) {
  const auto spec = merge_spec(qry::Aggregation::kP95);
  const std::size_t n = spec.grid_points();
  std::vector<qry::ShardSlice> slices(2);
  slices[0].matched = {"s/a"};
  slices[0].series = {series_of("s/a", 0.1, n)};
  slices[1].matched = {"s/b", "s/z"};
  slices[1].series = {series_of("s/b", 0.2, n), series_of("s/z", 0.9, n)};

  const qry::MergedQuery merged = qry::merge_shard_slices(spec, slices);
  ASSERT_EQ(merged.series.size(), 1u);
  EXPECT_EQ(merged.series[0].label, "p95(*)");

  // Reference: the engine's own column reduction in lexicographic order.
  const std::vector<qry::QuerySeries> ordered = {
      series_of("s/a", 0.1, n), series_of("s/b", 0.2, n),
      series_of("s/z", 0.9, n)};
  for (std::size_t t = 0; t < n; ++t) {
    std::vector<double> column(ordered.size());
    for (std::size_t i = 0; i < ordered.size(); ++i)
      column[i] = ordered[i].series[t];
    const double expect =
        qry::aggregate_column(qry::Aggregation::kP95, column);
    EXPECT_EQ(merged.series[0].series[t], expect) << t;  // bit-identical
  }
}

TEST(ShardMerge, RejectsMismatchedGrids) {
  const auto spec = merge_spec(qry::Aggregation::kNone);
  std::vector<qry::ShardSlice> slices(1);
  slices[0].matched = {"s/a"};
  slices[0].series = {series_of("s/a", 0.1, spec.grid_points() + 3)};
  EXPECT_THROW(qry::merge_shard_slices(spec, slices), std::runtime_error);
}

TEST(ShardMerge, OwnersCopyWinsADuplicate) {
  const auto spec = merge_spec(qry::Aggregation::kNone);
  const std::size_t n = spec.grid_points();
  // Shard 1 owns s/c; shard 0 holds a copy a handoff left behind, which
  // missed the owner's later ingest.
  std::vector<qry::ShardSlice> slices(2);
  slices[0] = {{"s/a", "s/c"},
               {series_of("s/a", 0.1, n), series_of("s/c", 0.3, n)},
               0};
  slices[1] = {{"s/c"}, {series_of("s/c", 0.7, n)}, 1};
  std::vector<std::string> asked;
  const qry::ShardOwner owner = [&asked](std::string_view stream) {
    asked.emplace_back(stream);
    return stream == "s/c" ? std::size_t{1} : std::size_t{0};
  };
  const std::vector<double> fresh(series_of("s/c", 0.7, n).series.values());

  for (int order = 0; order < 2; ++order) {
    SCOPED_TRACE(order == 0 ? "stale copy first" : "owner's copy first");
    const qry::MergedQuery merged =
        qry::merge_shard_slices(spec, slices, owner);
    EXPECT_EQ(merged.duplicate_streams, 1u);
    ASSERT_EQ(merged.series.size(), 2u);
    EXPECT_EQ(merged.series[1].label, "s/c");
    EXPECT_TRUE(same_values(merged.series[1].series.span(), fresh));
    std::swap(slices[0], slices[1]);
  }
  // Only the duplicated stream's owner was looked up, once per merge.
  EXPECT_EQ(asked, (std::vector<std::string>{"s/c", "s/c"}));
}

// ------------------------------------------------- fleet (router) fixtures --

/// N empty in-process nyqmond backends behind one router.
struct MiniFleet {
  std::vector<std::unique_ptr<mon::StripedRetentionStore>> stores;
  std::vector<std::unique_ptr<srv::NyqmondServer>> backends;
  std::unique_ptr<clu::NyqmonRouter> router;

  explicit MiniFleet(std::size_t n, std::uint32_t io_timeout_ms = 5000,
                     std::size_t front_frame_bytes = srv::kMaxFrameBytes) {
    clu::RouterConfig cfg;
    cfg.max_frame_bytes = front_frame_bytes;
    for (std::size_t i = 0; i < n; ++i) {
      stores.push_back(std::make_unique<mon::StripedRetentionStore>());
      srv::ServerConfig backend_cfg;
      // Fleet identity: spans and log records carry the node tag, and the
      // stitched trace test asserts per-node process lanes by these names.
      backend_cfg.node_name = "node" + std::to_string(i);
      backends.push_back(std::make_unique<srv::NyqmondServer>(
          *stores.back(), nullptr, backend_cfg));
      backends.back()->start();
      cfg.cluster.nodes.push_back({"node" + std::to_string(i), "127.0.0.1",
                                   backends.back()->port()});
    }
    cfg.cluster.connect_timeout_ms = 2000;
    cfg.cluster.io_timeout_ms = io_timeout_ms;
    router = std::make_unique<clu::NyqmonRouter>(cfg);
    router->start();
  }

  ~MiniFleet() {
    if (router != nullptr) router->stop();
    for (auto& backend : backends) backend->stop();
  }
};

const char* kStreams[] = {"podA/cpu", "podA/mem", "podB/cpu", "podB/mem",
                          "podC/cpu", "podC/mem", "podD/cpu", "podD/mem",
                          "rack1-tor/drops", "rack2-tor/drops"};

void ingest_fixture(srv::NyqmonClient& client) {
  double phase = 0.0;
  for (const char* name : kStreams) {
    const auto values = wave(256, phase += 0.7);
    client.ingest(name, 1.0, 0.0, values);
  }
}

std::vector<qry::QuerySpec> selector_suite() {
  std::vector<qry::QuerySpec> suite;
  const char* selectors[] = {"podA/cpu", "rack1-tor/drops", "*/cpu",
                             "podB/*",   "rack?-tor/drops", "*",
                             "none/such"};
  const qry::Transform transforms[] = {qry::Transform::kRaw,
                                       qry::Transform::kRate,
                                       qry::Transform::kZScore};
  const qry::Aggregation aggs[] = {
      qry::Aggregation::kNone, qry::Aggregation::kSum,
      qry::Aggregation::kAvg,  qry::Aggregation::kMin,
      qry::Aggregation::kMax,  qry::Aggregation::kP50,
      qry::Aggregation::kP95,  qry::Aggregation::kP99};
  std::size_t v = 0;
  for (const char* sel : selectors) {
    for (const auto agg : aggs) {
      suite.push_back(qry::QueryBuilder()
                          .select(sel)
                          .range(8.0, 200.0)
                          .align(4.0)
                          .transform(transforms[v++ % 3])
                          .aggregate(agg)
                          .build());
    }
  }
  return suite;
}

void expect_same_reply(const srv::QueryReply& a, const srv::QueryReply& b) {
  EXPECT_EQ(a.matched, b.matched);
  EXPECT_EQ(a.reconstructed, b.reconstructed);
  EXPECT_EQ(a.matched_labels, b.matched_labels);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].label, b.series[i].label);
    EXPECT_EQ(a.series[i].series.t0(), b.series[i].series.t0());
    EXPECT_EQ(a.series[i].series.dt(), b.series[i].series.dt());
    EXPECT_TRUE(same_values(a.series[i].series.span(),
                            b.series[i].series.span()))
        << a.series[i].label;
  }
}

std::string describe(const qry::QuerySpec& spec) {
  return spec.selector + " agg=" +
         std::to_string(static_cast<int>(spec.aggregate));
}

void expect_identical_answers(srv::NyqmonClient& one, srv::NyqmonClient& many,
                              const char* when) {
  for (const qry::QuerySpec& spec : selector_suite()) {
    const srv::QueryReply a = one.query(spec, true);
    const srv::QueryReply b = many.query(spec, true);
    SCOPED_TRACE(std::string(when) + ": " + describe(spec));
    expect_same_reply(a, b);
  }
}

/// Run body(0) .. body(n-1) on n threads at once and join them all. An
/// exception a body throws fails the test instead of ending the process.
void run_concurrently(std::size_t n,
                      const std::function<void(std::size_t)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    threads.emplace_back([&body, i] {
      try {
        body(i);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "thread " << i << ": " << e.what();
      }
    });
  for (std::thread& t : threads) t.join();
}

// ------------------------------------------------------ fleet determinism --

TEST(Fleet, OneNodeAndFourNodesAnswerBitIdentically) {
  MiniFleet one(1);
  MiniFleet four(4);
  srv::NyqmonClient c1("127.0.0.1", one.router->port());
  srv::NyqmonClient c4("127.0.0.1", four.router->port());
  ingest_fixture(c1);
  ingest_fixture(c4);

  // The 4-node fleet actually sharded the streams (no node holds all).
  std::size_t populated = 0;
  for (const auto& store : four.stores) {
    EXPECT_LT(store->streams(), std::size(kStreams));
    populated += store->streams() > 0 ? 1 : 0;
  }
  EXPECT_GE(populated, 2u);

  expect_identical_answers(c1, c4, "sharded");
  EXPECT_EQ(four.router->stats().partial_failures, 0u);
}

TEST(Fleet, HandoffKeepsAnswersBitIdentical) {
  MiniFleet one(1);
  MiniFleet four(4);
  srv::NyqmonClient c1("127.0.0.1", one.router->port());
  srv::NyqmonClient c4("127.0.0.1", four.router->port());
  ingest_fixture(c1);
  ingest_fixture(c4);

  // Move podA/cpu off its ring owner onto another node the way the
  // operator does (nyqmon_ctl handoff): EXPORT on the source backend,
  // IMPORT on the destination, one client each, since the router refuses
  // HANDOFF. The source keeps its copy (mid-handoff state): queries must
  // dedupe, not double-count.
  const std::size_t from = four.router->ring().owner("podA/cpu");
  const std::size_t to = (from + 1) % 4;
  srv::NyqmonClient source("127.0.0.1", four.backends[from]->port());
  srv::NyqmonClient destination("127.0.0.1", four.backends[to]->port());
  const srv::HandoffExportReply exported = source.handoff_export("podA/cpu");
  const srv::HandoffImportReply imported =
      destination.handoff_import(exported.segment);
  EXPECT_EQ(imported.streams, 1u);
  EXPECT_GT(imported.samples, 0u);
  EXPECT_TRUE(four.stores[to]->find_meta("podA/cpu").has_value());
  EXPECT_TRUE(four.stores[from]->find_meta("podA/cpu").has_value());

  expect_identical_answers(c1, c4, "mid-handoff duplicate");

  // Importing the same streams again is refused with per-stream detail.
  try {
    destination.handoff_import(source.handoff_export("podA/cpu").segment);
    FAIL() << "duplicate import must be refused";
  } catch (const srv::ServerError& e) {
    ASSERT_EQ(e.details().size(), 1u);
    EXPECT_EQ(e.details()[0].node, "podA/cpu");
  }
}

// After a handoff onto a lower-indexed node, ingest through the router
// reaches only the ring owner, so the copy the handoff left goes stale.
// Exact and glob queries both answer from the owner's copy, like one node.
TEST(Fleet, PostHandoffIngestAnswersLikeOneNode) {
  MiniFleet one(1);
  MiniFleet four(4);
  srv::NyqmonClient c1("127.0.0.1", one.router->port());
  srv::NyqmonClient c4("127.0.0.1", four.router->port());
  ingest_fixture(c1);
  ingest_fixture(c4);

  // A */cpu stream not owned by node0, copied onto node0, whose replies
  // come first in backend order.
  std::string moved;
  for (const char* name : kStreams)
    if (four.router->ring().owner(name) != 0 &&
        qry::match_glob("*/cpu", name)) {
      moved = name;
      break;
    }
  ASSERT_FALSE(moved.empty());
  const std::size_t owner = four.router->ring().owner(moved);
  srv::NyqmonClient source("127.0.0.1", four.backends[owner]->port());
  srv::NyqmonClient copy("127.0.0.1", four.backends[0]->port());
  EXPECT_EQ(copy.handoff_import(source.handoff_export(moved).segment).streams,
            1u);

  // 256 more values through each router; the 4-node fleet's reach only
  // the owner.
  const auto more = wave(256, 9.1);
  EXPECT_EQ(c1.ingest(moved, 1.0, 0.0, more), 512u);
  EXPECT_EQ(c4.ingest(moved, 1.0, 0.0, more), 512u);
  ASSERT_TRUE(four.stores[0]->find_meta(moved).has_value());
  EXPECT_EQ(four.stores[0]->find_meta(moved)->ingested_samples, 256u);

  for (const std::string& selector :
       {moved, std::string("*/cpu"), std::string("*")}) {
    for (const auto agg : {qry::Aggregation::kNone, qry::Aggregation::kAvg,
                           qry::Aggregation::kP95}) {
      const qry::QuerySpec spec = qry::QueryBuilder()
                                      .select(selector)
                                      .range(100.0, 400.0)
                                      .align(4.0)
                                      .aggregate(agg)
                                      .build();
      SCOPED_TRACE(describe(spec));
      expect_same_reply(c1.query(spec, true), c4.query(spec, true));
    }
  }
}

/// `spec` (an exact selector) answers like its glob twin, the selector
/// with its last character replaced by `?`: the twin matches the same one
/// stream but asks every node. An aggregate's label names the selector,
/// so labels are compared only for per-stream (kNone) answers.
void expect_exact_like_glob(srv::NyqmonClient& client,
                            const qry::QuerySpec& spec, const char* when) {
  qry::QuerySpec glob = spec;
  glob.selector.back() = '?';
  const srv::QueryReply exact = client.query(spec, true);
  const srv::QueryReply twin = client.query(glob, true);
  SCOPED_TRACE(testing::Message() << when << ": " << describe(spec) << " ["
                                  << spec.t_begin << ", " << spec.t_end
                                  << ")");
  EXPECT_EQ(exact.matched, twin.matched);
  EXPECT_EQ(exact.reconstructed, twin.reconstructed);
  EXPECT_EQ(exact.matched_labels, twin.matched_labels);
  ASSERT_EQ(exact.series.size(), twin.series.size());
  for (std::size_t i = 0; i < exact.series.size(); ++i) {
    if (spec.aggregate == qry::Aggregation::kNone) {
      EXPECT_EQ(exact.series[i].label, twin.series[i].label);
    }
    EXPECT_EQ(exact.series[i].series.t0(), twin.series[i].series.t0());
    EXPECT_EQ(exact.series[i].series.dt(), twin.series[i].series.dt());
    EXPECT_TRUE(same_values(exact.series[i].series.span(),
                            twin.series[i].series.span()));
  }
}

TEST(Fleet, ExactQueriesAnswerLikeTheirGlob) {
  MiniFleet four(4);
  srv::NyqmonClient c4("127.0.0.1", four.router->port());
  ingest_fixture(c4);
  const clu::HashRing& ring = four.router->ring();

  // The suite's exact specs, each also over [100, 400), which runs past
  // the fixture's 256 values into what later ingest adds.
  std::vector<qry::QuerySpec> specs;
  for (const qry::QuerySpec& spec : selector_suite()) {
    if (!qry::is_exact(spec.selector)) continue;
    specs.push_back(spec);
    specs.push_back(spec);
    specs.back().t_begin = 100.0;
    specs.back().t_end = 400.0;
  }
  ASSERT_EQ(specs.size(), 48u);
  const auto check = [&](const char* when,
                         const std::vector<qry::QuerySpec>& extra) {
    for (const qry::QuerySpec& spec : specs)
      expect_exact_like_glob(c4, spec, when);
    for (const qry::QuerySpec& spec : extra)
      expect_exact_like_glob(c4, spec, when);
  };
  // QUERY frames each backend serves for one query through the router.
  const auto exchanges = [&](const qry::QuerySpec& spec) {
    std::vector<std::uint64_t> frames;
    for (const auto& backend : four.backends)
      frames.push_back(backend->stats().query_frames);
    (void)c4.query(spec, true);
    for (std::size_t i = 0; i < frames.size(); ++i)
      frames[i] = four.backends[i]->stats().query_frames - frames[i];
    return frames;
  };
  const qry::QuerySpec& hit = specs.front();   // podA/cpu
  const qry::QuerySpec& absent = specs.back();  // none/such
  ASSERT_EQ(hit.selector, "podA/cpu");
  ASSERT_EQ(absent.selector, "none/such");
  const std::vector<std::uint64_t> every_node(4, 1);

  // 1. Freshly sharded. An exact hit is one exchange, with the owner; an
  // absent stream asks the owner, then every other node.
  check("sharded", {});
  const std::size_t owner = ring.owner(hit.selector);
  std::vector<std::uint64_t> owner_only(4, 0);
  owner_only[owner] = 1;
  const clu::RouterStats s0 = four.router->stats();
  EXPECT_EQ(exchanges(hit), owner_only);
  const clu::RouterStats s1 = four.router->stats();
  EXPECT_EQ(exchanges(absent), every_node);
  const clu::RouterStats s2 = four.router->stats();
  EXPECT_EQ(s1.owner_queries - s0.owner_queries, 1u);
  EXPECT_EQ(s1.owner_fallbacks - s0.owner_fallbacks, 0u);
  EXPECT_EQ(s2.owner_queries - s1.owner_queries, 1u);
  EXPECT_EQ(s2.owner_fallbacks - s1.owner_fallbacks, 1u);

  // 2. A mid-handoff duplicate, onto a lower-indexed node where there is
  // one, so the copy comes first in backend order.
  const std::size_t away = owner == 0 ? 1 : 0;
  {
    srv::NyqmonClient source("127.0.0.1", four.backends[owner]->port());
    srv::NyqmonClient destination("127.0.0.1", four.backends[away]->port());
    EXPECT_EQ(destination
                  .handoff_import(source.handoff_export(hit.selector).segment)
                  .streams,
              1u);
  }
  check("mid-handoff duplicate", {});

  // 3. More ingest after the handoff reaches only the owner, so the copy
  // on `away` goes stale.
  EXPECT_EQ(c4.ingest(hit.selector, 1.0, 0.0, wave(256, 5.0)), 512u);
  check("ingest after handoff", {});
  EXPECT_EQ(exchanges(hit), owner_only);

  // 4. A stream ingested only into a node that does not own it: its owner
  // has no series, so the exact query asks every node.
  {
    const std::size_t stray = (ring.owner(absent.selector) + 1) % 4;
    srv::NyqmonClient direct("127.0.0.1", four.backends[stray]->port());
    EXPECT_EQ(direct.ingest(absent.selector, 1.0, 0.0, wave(256, 6.0)),
              256u);
  }
  check("non-owner only", {});
  EXPECT_EQ(exchanges(absent), every_node);
  EXPECT_EQ(c4.query(absent, true).reconstructed, 1u);

  // 5. The owner holds late/cpu over [0, 256) only, while a non-owner copy
  // holds [1000, 1256): a query over [1000, 1200) finds nothing on the
  // owner and falls back; one over [100, 1200) finds both copies.
  const std::string late = "late/cpu";
  EXPECT_EQ(c4.ingest(late, 1.0, 0.0, wave(256, 7.0)), 256u);
  {
    const std::size_t elsewhere = (ring.owner(late) + 1) % 4;
    srv::NyqmonClient direct("127.0.0.1", four.backends[elsewhere]->port());
    EXPECT_EQ(direct.ingest(late, 1.0, 1000.0, wave(256, 8.0)), 256u);
  }
  std::vector<qry::QuerySpec> late_specs;
  for (const double t_begin : {1000.0, 100.0})
    for (const auto agg : {qry::Aggregation::kNone, qry::Aggregation::kSum,
                           qry::Aggregation::kP95})
      late_specs.push_back(qry::QueryBuilder()
                               .select(late)
                               .range(t_begin, 1200.0)
                               .align(4.0)
                               .aggregate(agg)
                               .build());
  check("owner lacks the range", late_specs);
  EXPECT_EQ(exchanges(late_specs.front()), every_node);
  EXPECT_EQ(c4.query(late_specs.front(), true).reconstructed, 1u);

  EXPECT_EQ(four.router->stats().partial_failures, 0u);
}

// The router refuses a reply that would not fit its front's frame cap
// with an ERR naming the cap, and the connection keeps serving.
TEST(Fleet, RouterRefusesOverCapRepliesAndServesOn) {
  MiniFleet fleet(2, 5000, /*front_frame_bytes=*/4096);
  srv::NyqmonClient client("127.0.0.1", fleet.router->port());
  client.ingest("podA/cpu", 1.0, 0.0, wave(400, 0.3));
  client.ingest("podB/cpu", 1.0, 0.0, wave(400, 0.9));

  // Two merged series of 1000 grid points: 16000 bytes of values alone.
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("*/cpu")
                                  .range(0.0, 400.0)
                                  .align(0.4)
                                  .build();
  try {
    (void)client.query(spec);
    FAIL() << "an over-cap merged QUERY reply must be refused";
  } catch (const srv::ServerError& e) {
    EXPECT_NE(std::string(e.what()).find("frame cap"), std::string::npos)
        << e.what();
  }
  try {
    (void)client.metrics_text(/*fleet=*/true);
    FAIL() << "an over-cap fleet METRICS reply must be refused";
  } catch (const srv::ServerError& e) {
    EXPECT_NE(std::string(e.what()).find("frame cap"), std::string::npos)
        << e.what();
  }
  EXPECT_NE(client.stats_json().find("\"router\""), std::string::npos);
  EXPECT_EQ(fleet.router->stats().partial_failures, 0u);
}

TEST(Fleet, ConcurrentQueriesAnswerLikeOneNodeBesideIngest) {
  MiniFleet one(1);
  MiniFleet four(4);
  srv::NyqmonClient c1("127.0.0.1", one.router->port());
  srv::NyqmonClient c4("127.0.0.1", four.router->port());
  ingest_fixture(c1);
  ingest_fixture(c4);

  // The side stream is ingested while the queries run, so no query may
  // select it: the suite's "*" specs are left out.
  const std::string side = "side/ingest";
  std::vector<qry::QuerySpec> specs;
  std::vector<srv::QueryReply> expected;
  for (const qry::QuerySpec& spec : selector_suite()) {
    if (qry::match_glob(spec.selector, side)) continue;
    specs.push_back(spec);
    expected.push_back(c1.query(spec, true));
  }
  ASSERT_FALSE(specs.empty());

  // One front reactor per online core, reported in the router's STATS.
  const std::size_t reactors =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(four.router->reactors(), reactors);
  const std::string reactors_field =
      "\"reactors\":" + std::to_string(reactors) + ",";

  // Connections 0..3 query the 4-node fleet, each from its own offset in
  // the suite; connection 4 ingests the side stream and reads fleet STATS
  // and fleet METRICS between batches.
  constexpr std::size_t kQueriers = 4;
  constexpr std::size_t kRounds = 2;
  constexpr std::size_t kBatches = 24;
  constexpr std::size_t kBatch = 32;
  std::atomic<std::size_t> answered{0};
  run_concurrently(kQueriers + 1, [&](std::size_t c) {
    srv::NyqmonClient conn("127.0.0.1", four.router->port());
    if (c == kQueriers) {
      for (std::size_t b = 0; b < kBatches; ++b) {
        const auto values = wave(kBatch, 0.3 * static_cast<double>(b));
        EXPECT_EQ(conn.ingest(side, 1.0, 0.0, values), (b + 1) * kBatch);
        const std::string stats = conn.stats_json();
        EXPECT_NE(stats.find(reactors_field), std::string::npos) << stats;
        EXPECT_NE(conn.metrics_text(/*fleet=*/true).find(
                      "# == node node3 ==\n"),
                  std::string::npos);
      }
      return;
    }
    for (std::size_t k = 0; k < kRounds * specs.size(); ++k) {
      const std::size_t which =
          (c * specs.size() / kQueriers + k) % specs.size();
      const srv::QueryReply reply = conn.query(specs[which], true);
      SCOPED_TRACE("connection " + std::to_string(c) + ": " +
                   describe(specs[which]));
      expect_same_reply(expected[which], reply);
      answered.fetch_add(1);
    }
  });

  // Every query answered (a thrown ERR or transport error fails the test
  // inside run_concurrently), and none of them by a partial fleet.
  EXPECT_EQ(answered.load(), kQueriers * kRounds * specs.size());
  const clu::RouterStats stats = four.router->stats();
  EXPECT_EQ(stats.partial_failures, 0u);
  EXPECT_EQ(stats.backend_errors, 0u);
  EXPECT_EQ(stats.queries_scattered, answered.load());
  // The side stream landed whole on its ring owner, and only there.
  const std::size_t owner = four.router->ring().owner(side);
  ASSERT_TRUE(four.stores[owner]->find_meta(side).has_value());
  EXPECT_EQ(four.stores[owner]->find_meta(side).value().ingested_samples,
            kBatches * kBatch);
}

// ------------------------------------------------------- partial failures --

/// Query `spec` and expect a prompt ERR-with-detail naming only node1.
void expect_node1_failure(srv::NyqmonClient& client,
                          const qry::QuerySpec& spec) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)client.query(spec);
    FAIL() << "expected a partial-failure ERR";
  } catch (const srv::ServerError& e) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    // Bounded by the per-backend deadline, not a hang: the healthy
    // backends answered and only the dead node is reported.
    EXPECT_LT(elapsed, 5.0);
    EXPECT_NE(std::string(e.what()).find("partial failure"),
              std::string::npos)
        << e.what();
    ASSERT_EQ(e.details().size(), 1u);
    EXPECT_EQ(e.details()[0].node, "node1");
  }
}

TEST(Fleet, KilledBackendAnswersErrWithDetailPromptly) {
  MiniFleet fleet(3, /*io_timeout_ms=*/500);
  srv::NyqmonClient client("127.0.0.1", fleet.router->port());
  ingest_fixture(client);

  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("*")
                                  .range(0.0, 128.0)
                                  .align(2.0)
                                  .build();

  // Several connections query at once first, so the router's pool holds
  // warm backend connection sets, each with a socket to node1, when it dies.
  constexpr std::size_t kConnections = 4;
  std::vector<std::unique_ptr<srv::NyqmonClient>> conns;
  for (std::size_t c = 0; c < kConnections; ++c)
    conns.push_back(std::make_unique<srv::NyqmonClient>(
        "127.0.0.1", fleet.router->port()));
  run_concurrently(kConnections, [&](std::size_t c) {
    for (int i = 0; i < 8; ++i) EXPECT_EQ(conns[c]->query(spec).matched, 10u);
  });

  fleet.backends[1]->stop();  // kill node1

  expect_node1_failure(client, spec);
  // Concurrently, twice per connection: a pooled client first finds its
  // socket to node1 closed, then its reconnect refused. Neither may hang
  // or answer a partial OK.
  run_concurrently(kConnections, [&](std::size_t c) {
    for (int round = 0; round < 2; ++round)
      expect_node1_failure(*conns[c], spec);
  });
  const clu::RouterStats stats = fleet.router->stats();
  EXPECT_EQ(stats.partial_failures, 1u + 2u * kConnections);
  EXPECT_EQ(stats.backend_errors, stats.partial_failures);

  // Streams owned by surviving nodes still ingest through the router.
  for (const char* name : kStreams) {
    if (fleet.router->ring().owner(name) == 1) continue;
    const auto values = wave(16, 3.3);
    EXPECT_EQ(client.ingest(name, 1.0, 0.0, values), 256u + 16u) << name;
    break;
  }
}

// An exact query asks only its stream's owner: a stopped owner fails it
// with a detail naming the owner alone, and any other stopped node does
// not fail it at all.
TEST(Fleet, ExactQueryFailsOnlyWithItsOwner) {
  MiniFleet fleet(3, /*io_timeout_ms=*/500);
  srv::NyqmonClient client("127.0.0.1", fleet.router->port());
  ingest_fixture(client);
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("podA/cpu")
                                  .range(8.0, 200.0)
                                  .align(4.0)
                                  .build();
  const std::size_t owner = fleet.router->ring().owner(spec.selector);
  const srv::QueryReply before = client.query(spec, true);
  ASSERT_EQ(before.series.size(), 1u);

  fleet.backends[(owner + 1) % 3]->stop();
  expect_same_reply(before, client.query(spec, true));
  EXPECT_EQ(fleet.router->stats().partial_failures, 0u);

  fleet.backends[owner]->stop();
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)client.query(spec);
    FAIL() << "a stopped owner must fail its exact query";
  } catch (const srv::ServerError& e) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(elapsed, 5.0);
    EXPECT_NE(std::string(e.what()).find("partial failure"),
              std::string::npos)
        << e.what();
    ASSERT_EQ(e.details().size(), 1u);
    EXPECT_EQ(e.details()[0].node, fleet.router->ring().nodes()[owner].id);
  }

  const clu::RouterStats stats = fleet.router->stats();
  EXPECT_EQ(stats.queries_scattered, 3u);
  EXPECT_EQ(stats.owner_queries, 3u);
  EXPECT_EQ(stats.owner_fallbacks, 0u);
  EXPECT_EQ(stats.partial_failures, 1u);
  EXPECT_EQ(stats.backend_errors, 1u);
  EXPECT_NE(client.stats_json().find(
                "\"owner_queries\":3,\"owner_fallbacks\":0,"),
            std::string::npos);
}

TEST(Fleet, RefusedIngestNamesTheOwnerAndIsNotRetried) {
  MiniFleet fleet(4);
  srv::NyqmonClient client("127.0.0.1", fleet.router->port());
  const std::string name = "podZ/new";
  const std::size_t owner = fleet.router->ring().owner(name);
  std::vector<std::uint64_t> frames_before;
  for (const auto& backend : fleet.backends)
    frames_before.push_back(backend->stats().ingest_frames);

  // A new stream needs a positive rate: the owner answers ERR, which the
  // router passes back with a detail naming the owner.
  try {
    client.ingest(name, 0.0, 0.0, wave(8, 0.0));
    FAIL() << "a new stream with rate 0 must be refused";
  } catch (const srv::ServerError& e) {
    EXPECT_NE(std::string(e.what()).find("positive rate"), std::string::npos)
        << e.what();
    ASSERT_EQ(e.details().size(), 1u);
    EXPECT_EQ(e.details()[0].node, fleet.router->ring().owner_node(name).id);
  }
  // An ERR answer is never retried: the owner saw exactly one frame.
  for (std::size_t i = 0; i < fleet.backends.size(); ++i)
    EXPECT_EQ(fleet.backends[i]->stats().ingest_frames,
              frames_before[i] + (i == owner ? 1 : 0))
        << "node" << i;
  EXPECT_FALSE(fleet.stores[owner]->find_meta(name).has_value());
}

// -------------------------------------------------- fleet observability ---

TEST(Fleet, FleetMetricsConcatenatesPerNodeSections) {
  MiniFleet fleet(2);
  srv::NyqmonClient client("127.0.0.1", fleet.router->port());
  ingest_fixture(client);

  const std::string text = client.metrics_text(/*fleet=*/true);
  EXPECT_NE(text.find("# == node router ==\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# == node node0 ==\n"), std::string::npos);
  EXPECT_NE(text.find("# == node node1 ==\n"), std::string::npos);
  // Backend sections carry real expositions, not placeholders.
  EXPECT_NE(text.find("nyqmon_server_ingest_latency_ns"), std::string::npos);

  // Without the fleet bit the router serves its own exposition only —
  // both as the bare legacy request and as an explicit zero flags byte
  // (consumed bytes mean the intercept must answer inline, not fall
  // through to the built-in handler).
  const std::string local = client.metrics_text(/*fleet=*/false);
  EXPECT_EQ(local.find("# == node"), std::string::npos);
  EXPECT_NE(local.find("# TYPE"), std::string::npos);
  const std::vector<std::uint8_t> no_fleet{0x00};
  const auto body = client.request_raw(
      static_cast<std::uint8_t>(srv::Verb::kMetrics), no_fleet);
  ASSERT_FALSE(body.empty());
  ASSERT_EQ(body[0], static_cast<std::uint8_t>(srv::Status::kOk));
  const std::string via_flags(body.begin() + 1, body.end());
  EXPECT_EQ(via_flags.find("# == node"), std::string::npos);
  EXPECT_NE(via_flags.find("# TYPE"), std::string::npos);
}

TEST(Fleet, RouterRejectsMalformedMetricsAndTracePayloads) {
  MiniFleet fleet(2);
  srv::NyqmonClient client("127.0.0.1", fleet.router->port());

  // A flags byte followed by junk is malformed: ERR, not a scatter.
  for (const srv::Verb verb : {srv::Verb::kMetrics, srv::Verb::kTrace}) {
    const std::vector<std::uint8_t> junk{0x01, 0x99};
    const auto body =
        client.request_raw(static_cast<std::uint8_t>(verb), junk);
    ASSERT_FALSE(body.empty());
    EXPECT_EQ(body[0], static_cast<std::uint8_t>(srv::Status::kError));
    const std::string text(body.begin() + 1, body.end());
    EXPECT_NE(text.find("malformed"), std::string::npos) << text;
  }

  // Unknown flag bits (fleet bit clear) are tolerated as a local request.
  const std::vector<std::uint8_t> future{0xfe};
  const auto ok = client.request_raw(
      static_cast<std::uint8_t>(srv::Verb::kMetrics), future);
  ASSERT_FALSE(ok.empty());
  EXPECT_EQ(ok[0], static_cast<std::uint8_t>(srv::Status::kOk));

  // The connection survives it all and still serves a fleet request.
  EXPECT_NE(client.metrics_text(true).find("# == node router =="),
            std::string::npos);
}

TEST(Fleet, RouterExplainAttributesScatterAndMerge) {
  MiniFleet fleet(4);
  srv::NyqmonClient client("127.0.0.1", fleet.router->port());
  ingest_fixture(client);

  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("*")
                                  .range(8.0, 200.0)
                                  .align(2.0)
                                  .build();
  const srv::QueryReply reply =
      client.query(spec, /*want_matched=*/true, /*want_explain=*/true);
  ASSERT_TRUE(reply.explain.has_value());
  const srv::QueryExplainBlock& ex = *reply.explain;
  EXPECT_GT(ex.total_ns, 0u);

  std::uint64_t contiguous = 0;
  std::size_t backend_rows = 0;
  bool saw_scatter = false;
  bool saw_merge = false;
  for (const srv::ExplainEntry& e : ex.stages) {
    if (e.stage.rfind("backend/", 0) == 0) {
      ++backend_rows;  // overlapping fan-out latencies, outside the sum
      continue;
    }
    contiguous += e.ns;
    saw_scatter |= e.stage == "scatter";
    saw_merge |= e.stage == "merge";
  }
  EXPECT_TRUE(saw_scatter);
  EXPECT_TRUE(saw_merge);
  // Every live backend contributes an informational gather row.
  EXPECT_EQ(backend_rows, 4u);
  // scatter + merge partition the router's handling end to end (the ISSUE
  // acceptance bar: ≥90% of total latency attributed to named stages).
  EXPECT_GE(contiguous * 10, ex.total_ns * 9)
      << "only " << contiguous << " of " << ex.total_ns << " ns attributed";

  // Without the flag the reply stays in the pre-explain shape.
  EXPECT_FALSE(client.query(spec, true).explain.has_value());
}

// -------------------------------------------------- stitched fleet trace --

struct ChromeEvent {
  std::string text;  ///< the raw event object, for targeted field reads
  std::string name;
  std::uint32_t pid = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

std::string json_str_field(const std::string& ev, const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  const std::size_t pos = ev.find(pat);
  if (pos == std::string::npos) return "";
  const std::size_t begin = pos + pat.size();
  return ev.substr(begin, ev.find('"', begin) - begin);
}

/// The `args.name` label of a process_name metadata event.
std::string process_label(const std::string& ev) {
  static const char kPat[] = "\"args\":{\"name\":\"";
  const std::size_t pos = ev.find(kPat);
  if (pos == std::string::npos) return "";
  const std::size_t begin = pos + sizeof(kPat) - 1;
  return ev.substr(begin, ev.find('"', begin) - begin);
}

/// Split a chrome-trace export into its event objects. Events begin with
/// `{"name":"` right after `[` or `,` — the same anchor inside an args
/// object is preceded by `:` and skipped.
std::vector<ChromeEvent> parse_chrome_events(const std::string& json) {
  static const char kAnchor[] = "{\"name\":\"";
  const auto next_anchor = [&json](std::size_t from) {
    std::size_t pos = json.find(kAnchor, from);
    while (pos != std::string::npos && pos > 0 && json[pos - 1] != '[' &&
           json[pos - 1] != ',')
      pos = json.find(kAnchor, pos + 1);
    return pos;
  };
  std::vector<ChromeEvent> events;
  std::size_t pos = next_anchor(0);
  while (pos != std::string::npos) {
    const std::size_t next = next_anchor(pos + 1);
    ChromeEvent ev;
    ev.text = json.substr(
        pos, (next == std::string::npos ? json.size() : next) - pos);
    ev.name = json_str_field(ev.text, "name");
    ev.trace_id = std::strtoull(json_str_field(ev.text, "trace_id").c_str(),
                                nullptr, 16);
    ev.span_id = std::strtoull(json_str_field(ev.text, "span_id").c_str(),
                               nullptr, 16);
    ev.parent_span_id = std::strtoull(
        json_str_field(ev.text, "parent_span_id").c_str(), nullptr, 16);
    const std::size_t pid_pos = ev.text.find("\"pid\":");
    if (pid_pos != std::string::npos)
      ev.pid = static_cast<std::uint32_t>(
          std::strtoul(ev.text.c_str() + pid_pos + 6, nullptr, 10));
    events.push_back(std::move(ev));
    pos = next;
  }
  return events;
}

TEST(Fleet, FleetTraceStitchesOneQueryTimeline) {
  // The ISSUE acceptance scenario: a 4-backend fleet query with tracing
  // armed yields ONE chrome JSON whose spans — router and all four
  // backends — share one trace_id, with the router's fan-out spans
  // parenting each backend's QUERY dispatch span.
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  MiniFleet fleet(4);
  srv::NyqmonClient client("127.0.0.1", fleet.router->port());
  ingest_fixture(client);

  rec.drain();  // discard the ingest round: capture only the traced query
  rec.set_enabled(true);
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("*")
                                  .range(8.0, 200.0)
                                  .align(4.0)
                                  .build();
  (void)client.query(spec, /*want_matched=*/true);
  const std::string json = client.trace_json(/*fleet=*/true);
  rec.set_enabled(false);
  rec.drain();  // leave nothing behind for later tests

  ASSERT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json;
  const std::vector<ChromeEvent> events = parse_chrome_events(json);

  // Every node in the fleet got a labelled process lane in the stitch.
  std::map<std::uint32_t, std::string> lanes;
  for (const ChromeEvent& ev : events)
    if (ev.name == "process_name") lanes[ev.pid] = process_label(ev.text);
  std::set<std::string> lane_names;
  for (const auto& [pid, name] : lanes) lane_names.insert(name);
  for (const char* node : {"router", "node0", "node1", "node2", "node3"})
    EXPECT_TRUE(lane_names.count(node)) << node << " has no process lane";

  // Exactly one trace id spans the QUERY dispatch on the router and on
  // all four backends.
  std::vector<ChromeEvent> query_spans;
  for (const ChromeEvent& ev : events)
    if (ev.name == "QUERY") query_spans.push_back(ev);
  ASSERT_EQ(query_spans.size(), 5u) << json;
  const std::uint64_t trace_id = query_spans[0].trace_id;
  EXPECT_NE(trace_id, 0u);
  for (const ChromeEvent& ev : query_spans)
    EXPECT_EQ(ev.trace_id, trace_id) << ev.text;

  // The router recorded one fan-out span per backend, all under a single
  // parent: its own QUERY span.
  std::map<std::uint64_t, std::string> fanout;  // span_id -> name
  std::set<std::uint64_t> fanout_parents;
  for (const ChromeEvent& ev : events)
    if (ev.trace_id == trace_id && ev.name.rfind("fanout/", 0) == 0) {
      fanout[ev.span_id] = ev.name;
      fanout_parents.insert(ev.parent_span_id);
    }
  ASSERT_EQ(fanout.size(), 4u) << json;
  ASSERT_EQ(fanout_parents.size(), 1u);
  const std::uint64_t router_span = *fanout_parents.begin();

  // The router's QUERY span is the trace root; each backend's QUERY span
  // is parented by a distinct fan-out span — the parent relation survived
  // the wire via the TraceContext trailer.
  std::set<std::uint64_t> backend_parents;
  std::set<std::string> backend_lanes;
  for (const ChromeEvent& ev : query_spans) {
    if (ev.span_id == router_span) {
      EXPECT_EQ(ev.parent_span_id, 0u) << ev.text;
      EXPECT_EQ(lanes[ev.pid], "router");
      continue;
    }
    ASSERT_TRUE(fanout.count(ev.parent_span_id)) << ev.text;
    backend_parents.insert(ev.parent_span_id);
    backend_lanes.insert(lanes[ev.pid]);
  }
  EXPECT_EQ(backend_parents.size(), 4u);
  EXPECT_EQ(backend_lanes,
            (std::set<std::string>{"node0", "node1", "node2", "node3"}));
}

TEST(Fleet, ExactQueryExplainsAndTracesOnlyItsOwner) {
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  MiniFleet fleet(4);
  srv::NyqmonClient client("127.0.0.1", fleet.router->port());
  ingest_fixture(client);
  const qry::QuerySpec spec = qry::QueryBuilder()
                                  .select("podA/cpu")
                                  .range(8.0, 200.0)
                                  .align(2.0)
                                  .build();
  const std::string owner = fleet.router->ring().owner_node(spec.selector).id;

  // EXPLAIN: one gather row, the owner's.
  const srv::QueryReply reply =
      client.query(spec, /*want_matched=*/true, /*want_explain=*/true);
  ASSERT_TRUE(reply.explain.has_value());
  std::vector<std::string> backend_rows;
  for (const srv::ExplainEntry& e : reply.explain->stages)
    if (e.stage.rfind("backend/", 0) == 0) backend_rows.push_back(e.stage);
  EXPECT_EQ(backend_rows, (std::vector<std::string>{"backend/" + owner}));

  // Trace: the router's QUERY span parents one fan-out span, which parents
  // the owner's QUERY span.
  rec.drain();
  rec.set_enabled(true);
  (void)client.query(spec, /*want_matched=*/true);
  const std::string json = client.trace_json(/*fleet=*/true);
  rec.set_enabled(false);
  rec.drain();

  const std::vector<ChromeEvent> events = parse_chrome_events(json);
  std::map<std::uint32_t, std::string> lanes;
  for (const ChromeEvent& ev : events)
    if (ev.name == "process_name") lanes[ev.pid] = process_label(ev.text);
  std::vector<ChromeEvent> query_spans;
  for (const ChromeEvent& ev : events)
    if (ev.name == "QUERY") query_spans.push_back(ev);
  ASSERT_EQ(query_spans.size(), 2u) << json;
  const std::uint64_t trace_id = query_spans[0].trace_id;
  EXPECT_NE(trace_id, 0u);
  EXPECT_EQ(query_spans[1].trace_id, trace_id);

  std::vector<ChromeEvent> fanout;
  for (const ChromeEvent& ev : events)
    if (ev.trace_id == trace_id && ev.name.rfind("fanout/", 0) == 0)
      fanout.push_back(ev);
  ASSERT_EQ(fanout.size(), 1u) << json;
  EXPECT_EQ(fanout[0].name, "fanout/" + owner);
  for (const ChromeEvent& ev : query_spans) {
    if (ev.span_id == fanout[0].parent_span_id) {
      EXPECT_EQ(ev.parent_span_id, 0u) << ev.text;
      EXPECT_EQ(lanes[ev.pid], "router");
    } else {
      EXPECT_EQ(ev.parent_span_id, fanout[0].span_id) << ev.text;
      EXPECT_EQ(lanes[ev.pid], owner);
    }
  }
}

// ------------------------------------------------------- client timeouts --

TEST(ClusterClient, TimeoutsAreBounded) {
  // A listener that never accepts: the connect completes via the kernel
  // backlog, but no request is ever answered — the io timeout bounds the
  // wait instead of hanging forever.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  srv::ClientOptions options;
  options.connect_timeout_ms = 500;
  options.io_timeout_ms = 300;
  auto t0 = std::chrono::steady_clock::now();
  {
    srv::NyqmonClient client("127.0.0.1", port, options);
    EXPECT_THROW(client.stats_json(), std::runtime_error);
  }
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 5.0);

  // Saturate the backlog (listen(…, 0) = one pending connection on Linux)
  // so further SYNs are dropped: the connect timeout bounds the attempt.
  const int full = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(full, 0);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(full, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(full, 0), 0);
  len = sizeof(addr);
  ASSERT_EQ(::getsockname(full, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::vector<int> fillers;
  for (int i = 0; i < 4; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    fillers.push_back(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(srv::NyqmonClient("127.0.0.1", ntohs(addr.sin_port), options),
               std::runtime_error);
  elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 5.0);

  for (const int fd : fillers) ::close(fd);
  ::close(full);
  ::close(listener);
}

TEST(ClusterClient, RetryWithBackoffRetriesTransportOnly) {
  int calls = 0;
  srv::RetryPolicy policy;
  policy.attempts = 3;
  policy.initial_backoff = std::chrono::milliseconds(1);
  const int result = srv::retry_with_backoff(policy, [&] {
    if (++calls < 3) throw std::runtime_error("transient");
    return 42;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);

  // A ServerError is a definitive answer: no retry.
  calls = 0;
  EXPECT_THROW(srv::retry_with_backoff(policy, [&]() -> int {
                 ++calls;
                 throw srv::ServerError("refused", {});
               }),
               srv::ServerError);
  EXPECT_EQ(calls, 1);

  // Exhausted attempts rethrow the last transport error.
  calls = 0;
  EXPECT_THROW(srv::retry_with_backoff(policy, [&]() -> int {
                 ++calls;
                 throw std::runtime_error("down");
               }),
               std::runtime_error);
  EXPECT_EQ(calls, 3);
}

}  // namespace
