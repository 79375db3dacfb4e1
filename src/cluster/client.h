// ClusterClient — the fleet-side library of the sharded nyqmond cluster.
//
// Wraps N nyqmond backends behind one API: INGEST routes to the stream's
// ring owner (cluster/hash.h), while a glob QUERY, STATS and CHECKPOINT
// scatter to every node concurrently and gather with a per-backend
// deadline. Query results are re-merged with the query engine's own
// reduction code (query/merge.h), so a fleet of any size answers
// bit-identically to one process holding all the streams.
//
// Scatter requests rewrite the client's QuerySpec to Aggregation::kNone
// with kQueryWantMatched set: each shard returns its aligned, transformed
// per-stream series plus the matched stream IDs, and the aggregation (and
// matched/reconstructed dedup — two shards both hold a stream mid-handoff)
// happens centrally. Reads consult the ring twice:
// - A wildcard-free selector names one stream, whose writes go only to its
//   ring owner, so the query asks the owner alone. Only when the owner
//   answers OK with no series (it lacks the stream, or holds nothing in the
//   range) are the other nodes asked, and all the replies merged as for a
//   glob. That fallback keeps a stream readable while a handoff has left
//   its data off its owner.
// - When two shards both return a stream, the merge keeps the owner's copy
//   (the one further ingest reaches), so an exact query and a glob over the
//   same stream agree.
//
// Threading: one ClusterClient serves one thread at a time, since each
// backend connection carries one exchange at a time. The router keeps a
// pool and leases one client to each request it handles.
//
// Failure model: scatter never throws for a backend failure — each failed
// node becomes an ErrorDetail (node id + reason) in the result, and its
// connection is reset so the next request reconnects. Callers (the router)
// decide whether partial answers are acceptable. A failed owner fails an
// exact query: the other nodes are not asked in its place, since a copy
// there may be stale. Ring-routed ingest
// retries through retry_with_backoff instead, since it has exactly one
// viable destination.
//
// Distributed tracing: when the calling thread carries an active trace
// context (obs/trace.h) and the recorder is armed, scatter() sends each
// backend it asks its own frame with a TraceContext trailer whose parent
// is a per-backend "fanout/<node>" span — recorded here with the measured
// send→settle duration — so the backend's dispatch span parents under the
// fan-out arm that carried it and a fleet query stitches into one
// timeline. Ring-routed ingest propagates the caller's current span the
// same way. With tracing disarmed the wire bytes are identical to the
// pre-tracing protocol.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/hash.h"
#include "query/merge.h"
#include "server/client.h"

namespace nyqmon::obs {
class Histogram;
}  // namespace nyqmon::obs

namespace nyqmon::clu {

struct ClusterConfig {
  std::vector<NodeDesc> nodes;
  std::size_t vnodes = 64;
  /// Per-backend connection establishment bound. 0 = block forever.
  std::uint32_t connect_timeout_ms = 1000;
  /// Per-backend reply deadline for scatter-gather (and the I/O timeout on
  /// routed single-node requests). 0 = wait forever.
  std::uint32_t io_timeout_ms = 5000;
  std::size_t max_frame_bytes = srv::kMaxFrameBytes;
};

/// Per-node outcome of one scatter round: `payloads[i]` holds node i's OK
/// payload (nullopt when it failed or was not asked), and every failure —
/// transport, timeout, or an ERR answer — is described in `failures`.
struct ScatterOutcome {
  std::vector<std::optional<std::vector<std::uint8_t>>> payloads;
  std::vector<srv::ErrorDetail> failures;
  /// Per-node send→settle latency, index-aligned with `payloads`; 0 for
  /// nodes that never settled with an answer (transport failure/timeout)
  /// and for nodes that were not asked.
  std::vector<std::uint64_t> gather_ns;
};

/// A scattered + merged fleet query.
struct FleetQuery {
  qry::MergedQuery merged;
  /// True only when every shard asked answered from its cache.
  bool cache_hit = false;
  /// An exact selector: the stream's ring owner was asked alone first.
  bool owner_first = false;
  /// The owner answered with no series, so every other node was asked too.
  bool owner_fallback = false;
  /// Backends that contributed nothing (their streams are missing from
  /// `merged`). Empty means the answer is complete.
  std::vector<srv::ErrorDetail> failures;
  /// Wall time of the scatter-gather rounds (send through last settle;
  /// two rounds when the owner fell back).
  std::uint64_t scatter_ns = 0;
  /// Wall time of the central decode + cross-shard merge.
  std::uint64_t merge_ns = 0;
  /// Per-backend gather latency, index-aligned with the node set (see
  /// ScatterOutcome::gather_ns; 0 for a node not asked) — the router's
  /// EXPLAIN fan-out rows.
  std::vector<std::uint64_t> gather_ns;
};

/// One node's STATS (or METRICS) exposition, or why it is missing.
struct NodeText {
  std::string node;
  std::string text;   ///< empty on error
  std::string error;  ///< empty on success
};

class ClusterClient {
 public:
  /// Validates the node set (ring construction throws on duplicates) but
  /// connects lazily: each backend connection is opened on first use and
  /// re-opened after a failure.
  explicit ClusterClient(ClusterConfig config);
  ~ClusterClient();

  ClusterClient(const ClusterClient&) = delete;
  ClusterClient& operator=(const ClusterClient&) = delete;

  /// Route one ingest batch to the stream's ring owner (reconnecting with
  /// the default srv::RetryPolicy). Returns the stream's total after the
  /// append.
  std::uint64_t ingest(const std::string& stream, double rate_hz, double t0,
                       std::span<const double> values);

  /// Ask the nodes `spec` needs (an exact selector's owner, then the rest
  /// only if the owner has no series; every node for a glob), gather
  /// within the per-backend deadline, and merge centrally. Throws only
  /// when the merge itself fails (a shard answered a different grid);
  /// backend failures land in `failures`.
  FleetQuery query(const qry::QuerySpec& spec);

  /// Scatter a payload-less text verb (STATS, METRICS): every node's reply
  /// text or its error, index-aligned with the configured nodes.
  std::vector<NodeText> fleet_text(srv::Verb verb);

  /// Scatter CHECKPOINT to every node. Failures land in
  /// `outcome.failures`; each OK payload is a decoded CheckpointReply.
  std::vector<std::optional<srv::CheckpointReply>> checkpoint_all(
      std::vector<srv::ErrorDetail>& failures);

  /// Send one identical request to each of `nodes` (indices into the
  /// configured node set) and gather the replies within the per-backend
  /// deadline; a node not in `nodes` has no payload, no failure and no
  /// gather time. The building block under query() and checkpoint_all(),
  /// exposed for the router's pass-through verbs.
  ScatterOutcome scatter(srv::Verb verb, std::span<const std::uint8_t> payload,
                         std::span<const std::size_t> nodes);

  /// Every configured node's index, in order: `nodes` for a whole-fleet
  /// scatter.
  std::span<const std::size_t> every_node() const { return every_node_; }

 private:
  /// Lazily connected backend client; throws when (re)connect fails.
  srv::NyqmonClient& node(std::size_t i);
  /// Drop node i's connection so the next use reconnects (a timed-out or
  /// failed exchange leaves the byte stream unsynchronized).
  void reset(std::size_t i);

  ClusterConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<srv::NyqmonClient>> conns_;
  /// 0 .. nodes - 1 (see every_node()).
  std::vector<std::size_t> every_node_;
  /// Interned "fanout/<node id>" span names, index-aligned with nodes
  /// (trace event names must outlive the recorder — see obs/trace.h).
  std::vector<const char*> fanout_names_;
  /// nyqmon_cluster_backend<i>_gather_ns, index-aligned with nodes.
  std::vector<obs::Histogram*> gather_histograms_;
};

}  // namespace nyqmon::clu
