// NyqmonRouter — the scatter-gather front of a sharded nyqmond fleet.
//
// Speaks the ordinary nyqmond wire protocol to clients (a router is
// indistinguishable from a big nyqmond) and fans out to N backends through
// ClusterClients:
//
//   INGEST      → routed to the stream's consistent-hash ring owner
//   QUERY       → a glob scattered to every backend (aggregation
//                 stripped), gathered within the per-backend deadline,
//                 merged with the query engine's own reduction
//                 (query/merge.h) so the answer is bit-identical to a
//                 single node holding all streams. A wildcard-free
//                 selector asks its stream's ring owner alone, and every
//                 other backend only when the owner has no series for it.
//                 Any failure of a backend asked answers ERR-with-detail —
//                 which backends failed and why — rather than silently
//                 serving a partial fleet.
//   STATS       → router counters + every backend's STATS JSON, one object
//   CHECKPOINT  → scattered; chunks/bytes summed, persisted = all
//   METRICS     → the router process's own registry (includes the
//                 nyqmon_router_* and per-backend cluster series); with
//                 the kMetricsFleet flag, every backend's exposition too,
//                 concatenated as `# == node <name> ==` sections
//   TRACE       → the router process's own trace ring; with the
//                 kTraceFleet flag, every backend's ring is drained too
//                 and stitched (merge_chrome_json) into one fleet-wide
//                 chrome://tracing timeline sharing the propagated
//                 trace ids
//   HANDOFF     → refused: topology moves address a backend node directly
//                 (nyqmon_ctl handoff), not the fleet front
//
// With the kQueryWantExplain flag, the scattered QUERY's reply carries the
// router's own stage breakdown — scatter, merge (decode + central
// reduction), plus informational `backend/<node>` gather rows, one per
// backend asked, that overlap the scatter stage — appended to whatever the
// wire already carried.
//
// Implementation: a NyqmondServer over an empty store with the intercept
// hook — the router inherits the event loop, framing robustness, and
// bounded reply queues, and replaces the data path.
//
// Concurrency: the front runs the server's default of one reactor per
// online core, so up to that many requests are handled at once, each on
// its connection's reactor. Every intercepted request leases a
// ClusterClient (one socket per backend) from a pool for its duration, so
// concurrent scatters never share a backend connection. A reactor handles
// one request at a time, so the pool never holds more clients than there
// are reactors, and backend sockets stay bounded by reactors x backends.
// Requests on one front connection are still handled in order by that
// connection's reactor.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "cluster/client.h"
#include "monitor/striped_store.h"
#include "server/server.h"

namespace nyqmon::clu {

struct RouterConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read back with port().
  std::uint16_t port = 0;
  std::size_t max_frame_bytes = srv::kMaxFrameBytes;
  /// The router's fleet identity: tags its spans and log records, and
  /// names its section in stitched timelines / fleet metrics.
  std::string node_name = "router";
  ClusterConfig cluster;
};

/// Monotonic router counters (readable from any thread).
struct RouterStats {
  std::uint64_t frames = 0;
  std::uint64_t ingests_routed = 0;
  std::uint64_t queries_scattered = 0;
  /// Exact-selector queries sent to the stream's ring owner alone.
  std::uint64_t owner_queries = 0;
  /// Of those, the ones whose owner answered with no series and that then
  /// asked every other node.
  std::uint64_t owner_fallbacks = 0;
  /// Scatter rounds where at least one backend failed (ERR-with-detail).
  std::uint64_t partial_failures = 0;
  /// Individual backend failures across all scatter rounds.
  std::uint64_t backend_errors = 0;
};

class NyqmonRouter {
 public:
  explicit NyqmonRouter(RouterConfig config);
  ~NyqmonRouter();

  NyqmonRouter(const NyqmonRouter&) = delete;
  NyqmonRouter& operator=(const NyqmonRouter&) = delete;

  /// Bind, listen, and spawn the front reactors (one per online core).
  /// Backend connections open lazily on first use.
  void start();
  void stop();
  bool running() const { return front_ != nullptr && front_->running(); }

  /// The bound front port (valid after start()).
  std::uint16_t port() const { return front_->port(); }
  /// Front reactors: how many requests the router handles at once (valid
  /// after start()).
  std::size_t reactors() const { return front_->config().reactors; }

  const HashRing& ring() const { return ring_; }

  RouterStats stats() const;

 private:
  /// Returns a leased ClusterClient to the pool.
  struct ReturnToPool {
    NyqmonRouter* router;
    void operator()(ClusterClient* client) const;
  };
  /// A ClusterClient held by one request; back in the pool on scope exit,
  /// exceptions included. A failed exchange has already reset the sockets
  /// it broke, so a returned client is always safe to reuse.
  using Lease = std::unique_ptr<ClusterClient, ReturnToPool>;
  /// An idle pooled client, or a new one when every client is leased.
  /// Each reactor holds at most one lease at a time.
  Lease lease();

  std::optional<std::vector<std::uint8_t>> intercept(srv::Verb verb,
                                                     sto::ByteReader& reader);
  std::vector<std::uint8_t> route_ingest(sto::ByteReader& reader);
  std::vector<std::uint8_t> scatter_query(sto::ByteReader& reader);
  std::vector<std::uint8_t> fleet_stats_json();
  std::vector<std::uint8_t> scatter_checkpoint();
  /// kTraceFleet: drain + stitch every node's ring (router's included).
  std::vector<std::uint8_t> fleet_trace_json();
  /// kMetricsFleet: every node's exposition as `# == node <name> ==`
  /// sections (router's first).
  std::vector<std::uint8_t> fleet_metrics_text();
  void count_failures(const std::vector<srv::ErrorDetail>& failures);

  RouterConfig config_;
  HashRing ring_;
  std::mutex pool_mu_;
  std::vector<std::unique_ptr<ClusterClient>> idle_;
  /// Clients created so far, leased or idle (at most one per reactor).
  std::size_t clients_ = 0;
  /// Empty store backing the front NyqmondServer; the intercept hook keeps
  /// every data verb away from it.
  mon::StripedRetentionStore empty_store_;
  std::unique_ptr<srv::NyqmondServer> front_;

  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> ingests_routed_{0};
  std::atomic<std::uint64_t> queries_scattered_{0};
  std::atomic<std::uint64_t> owner_queries_{0};
  std::atomic<std::uint64_t> owner_fallbacks_{0};
  std::atomic<std::uint64_t> partial_failures_{0};
  std::atomic<std::uint64_t> backend_errors_{0};
};

}  // namespace nyqmon::clu
