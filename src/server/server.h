// NyqmondServer — the network front of the retention store.
//
// A poll(2)-driven TCP server speaking the length-prefixed binary
// protocol of server/protocol.h: INGEST appends batched samples to retained
// streams (created on first ingest), QUERY runs a selector + spec through a
// QueryEngine, STATS reports a JSON counter snapshot, CHECKPOINT seals the
// durable tier, METRICS exposes the process metric registry as Prometheus
// text, and TRACE drains the in-process trace ring as chrome://tracing
// JSON.
//
// Threading model (multi-reactor): one accept thread owns the listening
// socket and deals accepted connections round-robin across N reactor
// threads (ServerConfig::reactors, default one per online core — the same
// rule for a backend, a router front and the nyqmond daemon). Each reactor
// runs its own poll(2) loop over the connections it exclusively owns —
// per-connection state (buffers, bounded reply queues, backpressure) is
// single-threaded by ownership, while the store, query engine, and wire
// counters are shared and thread-safe. Commands execute inline on the
// owning reactor, so each connection's requests are answered in the order
// sent, and a request sent after another connection's reply arrived sees
// that request's effects. Requests in flight on different connections at
// the same time are served in parallel, in no fixed order; with
// `reactors = 1` they are served one at a time. The *store* stays safely
// shared with a concurrently running StreamingRuntime — serving during
// ingest is the normal mode — and reads reconstruct from snapshot handles
// (monitor/store.h ReadSnapshot), never holding stripe locks.
//
// CHECKPOINT (and the persist step of HANDOFF import) quiesces the
// reactors: the initiating reactor parks every other reactor at its loop
// top before running the flush, so no INGEST dispatch can land between
// the store snapshot and the WAL swap on another thread.
//
// Robustness: partial frames are buffered per connection, oversized or
// zero length prefixes answer ERR and close (a corrupt prefix cannot be
// resynchronized), unknown verbs and malformed payloads answer ERR and
// keep the connection, and a client that disconnects mid-reply just gets
// its connection reaped (SIGPIPE is never raised). Shutdown is graceful:
// stop() drains the loop, closes every connection, and flushes a final
// checkpoint so the WAL + segments on disk recover to the served state.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "monitor/striped_store.h"
#include "query/engine.h"
#include "server/protocol.h"
#include "storage/manager.h"

namespace nyqmon::srv {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port().
  std::uint16_t port = 0;
  /// Largest frame body read or answered. Also the per-connection reply
  /// queue bound in bytes: once a client's undelivered replies reach it,
  /// the server stops reading (and dispatching) that connection until it
  /// drains.
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// The same bound in whole queued reply frames — catches a pipelining
  /// client whose tiny replies would never trip the byte bound.
  std::size_t max_reply_queue_frames = 64;
  /// Drop (close) a connection whose bounded reply queue makes no send
  /// progress for this long — a stuck client must not hold its replies in
  /// server memory forever. 0 = stall indefinitely, never drop.
  std::uint32_t slow_client_timeout_ms = 0;
  /// Event-loop shards. Each reactor thread exclusively owns the
  /// connections the accept thread deals to it (round-robin) and runs the
  /// full read/dispatch/reply loop for them, so concurrent clients are
  /// served in parallel instead of head-of-line blocking behind one slow
  /// request. 0 (the default) resolves in the constructor to one reactor
  /// per online core, max(1, std::thread::hardware_concurrency());
  /// config().reactors reports the resolved count. 1 serves every
  /// connection from a single reactor, one request at a time.
  std::size_t reactors = 0;
  /// Fleet identity: tags every trace span and log record produced on the
  /// event-loop threads, and names this node in stitched fleet timelines.
  /// Empty = unnamed (standalone nyqmond).
  std::string node_name;
  qry::QueryEngineConfig query;
  /// CHECKPOINT delegate. Servers fronting a StreamingRuntime must point
  /// this at StreamingRuntime::checkpoint() so the flush is quiesced
  /// against the scheduler; when unset, the server flushes `storage`
  /// directly. Either way the server quiesces its own reactors first
  /// (see run_quiesced), so server-side INGEST on other reactors cannot
  /// race the flush — the delegate only needs to quiesce *its* writers.
  std::function<sto::FlushStats()> checkpoint_fn;
  /// Cluster hook: when set, every decoded request verb is offered to this
  /// function before the built-in handlers. A returned frame (OK or ERR)
  /// becomes the reply; nullopt falls through to the built-in handler, in
  /// which case the hook must not have consumed any payload bytes from the
  /// reader. Runs on the loop thread; a thrown exception answers ERR. The
  /// scatter-gather router fronts a fleet with this — it gets the socket
  /// loop, framing robustness, and reply-queue bounds for free.
  std::function<std::optional<std::vector<std::uint8_t>>(Verb,
                                                         sto::ByteReader&)>
      intercept;
};

/// Monotonic wire counters (readable from any thread).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames = 0;
  std::uint64_t ingest_frames = 0;
  std::uint64_t query_frames = 0;
  std::uint64_t stats_frames = 0;
  std::uint64_t checkpoint_frames = 0;
  std::uint64_t metrics_frames = 0;
  std::uint64_t trace_frames = 0;
  std::uint64_t handoff_frames = 0;
  std::uint64_t logs_frames = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t samples_ingested = 0;
  /// Connections that entered reply-queue backpressure (reads suspended).
  std::uint64_t backpressure_stalls = 0;
  /// Connections dropped for exceeding slow_client_timeout_ms while stalled.
  std::uint64_t slow_clients_dropped = 0;
};

class NyqmondServer {
 public:
  /// The store (and storage manager, when given) must outlive the server.
  /// `storage` may be nullptr for an in-memory server.
  NyqmondServer(mon::StripedRetentionStore& store,
                sto::StorageManager* storage, ServerConfig config = {});
  ~NyqmondServer();

  NyqmondServer(const NyqmondServer&) = delete;
  NyqmondServer& operator=(const NyqmondServer&) = delete;

  /// Bind, listen, and spawn the event loop. Throws std::runtime_error on
  /// socket failure.
  void start();

  /// Graceful shutdown: stop accepting, close connections, join the loop,
  /// and flush a final checkpoint. Idempotent.
  void stop();

  bool running() const { return running_.load(); }

  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  ServerStats stats() const;

  /// The configuration as served: `reactors` holds the resolved count.
  const ServerConfig& config() const { return config_; }

 private:
  struct Connection {
    int fd = -1;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    std::size_t out_sent = 0;
    /// Whole reply frames queued since `out` last drained empty.
    std::size_t out_frames = 0;
    bool close_after_flush = false;
    /// Reply queue at its bound with reads suspended; stall_since marks
    /// when the current stall episode began (slow-client drop clock).
    bool stalled = false;
    std::chrono::steady_clock::time_point stall_since{};
  };

  /// One event-loop shard. The reactor thread exclusively owns `conns`;
  /// the accept thread only touches `inbox` (under `inbox_mu`) and the
  /// wake pipe's write end. The reply_* atomics publish this reactor's
  /// share of the queue-depth gauges.
  struct Reactor {
    std::size_t index = 0;
    int wake_pipe[2] = {-1, -1};
    std::thread thread;
    std::mutex inbox_mu;
    std::vector<int> inbox;  ///< accepted fds awaiting adoption
    std::vector<std::unique_ptr<Connection>> conns;
    std::atomic<std::size_t> reply_backlog{0};
    std::atomic<std::size_t> reply_frames{0};
  };

  void accept_loop();
  void accept_clients();
  void reactor_loop(Reactor& reactor);
  /// Move the fds the accept thread dealt to this reactor into its conns.
  void adopt_inbox(Reactor& reactor);
  /// Block at a quiesce barrier while one is requested (reactor loop top).
  void park_for_quiesce();
  /// Park every *other* reactor at its loop top, run `fn`, release them.
  /// Must be called on a reactor thread (dispatch context). Serialized:
  /// a second initiator parks like any reactor until the first finishes.
  sto::FlushStats run_quiesced(const std::function<sto::FlushStats()>& fn);
  /// The CHECKPOINT body shared by handle_checkpoint, HANDOFF import's
  /// persist step, and stop()'s final flush.
  sto::FlushStats checkpoint_now();
  /// Returns false when the connection must be dropped. `polled_at` is
  /// when the reactor's poll(2) round returned; each frame dispatched in
  /// the round records its wait since then.
  bool read_client(Connection& conn,
                   std::chrono::steady_clock::time_point polled_at);
  bool write_client(Connection& conn);
  /// Consume every complete frame in conn.in.
  bool drain_frames(Connection& conn,
                    std::chrono::steady_clock::time_point polled_at);
  void dispatch(Connection& conn, std::span<const std::uint8_t> body,
                std::chrono::steady_clock::time_point polled_at);
  std::vector<std::uint8_t> handle_ingest(sto::ByteReader& reader);
  std::vector<std::uint8_t> handle_query(sto::ByteReader& reader);
  std::vector<std::uint8_t> handle_stats();
  std::vector<std::uint8_t> handle_checkpoint();
  std::vector<std::uint8_t> handle_metrics();
  std::vector<std::uint8_t> handle_trace();
  std::vector<std::uint8_t> handle_handoff(sto::ByteReader& reader);
  std::vector<std::uint8_t> handle_logs();

  /// True when this connection's undelivered replies are at their bound.
  bool reply_queue_full(const Connection& conn) const {
    return conn.out.size() - conn.out_sent >= config_.max_frame_bytes ||
           conn.out_frames >= config_.max_reply_queue_frames;
  }

  mon::StripedRetentionStore& store_;
  sto::StorageManager* storage_;
  ServerConfig config_;
  qry::QueryEngine query_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< wakes the accept thread
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::size_t next_reactor_ = 0;  ///< accept thread's round-robin cursor

  // Cross-reactor checkpoint quiesce barrier (see run_quiesced).
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;
  bool quiesce_requested_ = false;
  std::size_t quiesce_parked_ = 0;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> ingest_frames_{0};
  std::atomic<std::uint64_t> query_frames_{0};
  std::atomic<std::uint64_t> stats_frames_{0};
  std::atomic<std::uint64_t> checkpoint_frames_{0};
  std::atomic<std::uint64_t> metrics_frames_{0};
  std::atomic<std::uint64_t> trace_frames_{0};
  std::atomic<std::uint64_t> handoff_frames_{0};
  std::atomic<std::uint64_t> logs_frames_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> samples_ingested_{0};
  std::atomic<std::uint64_t> backpressure_stalls_{0};
  std::atomic<std::uint64_t> slow_clients_dropped_{0};
};

}  // namespace nyqmon::srv
