#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/selector.h"
#include "storage/segment.h"
#include "util/check.h"

namespace nyqmon::srv {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

const char* verb_name(Verb verb) {
  switch (verb) {
    case Verb::kIngest: return "INGEST";
    case Verb::kQuery: return "QUERY";
    case Verb::kStats: return "STATS";
    case Verb::kCheckpoint: return "CHECKPOINT";
    case Verb::kMetrics: return "METRICS";
    case Verb::kTrace: return "TRACE";
    case Verb::kHandoff: return "HANDOFF";
    case Verb::kLogs: return "LOGS";
  }
  return "UNKNOWN";
}

/// Per-verb request latency, dispatch-to-reply-queued. Registered eagerly
/// per verb so every series is present in the exposition from the first
/// frame of any kind.
obs::Histogram* verb_latency_histogram(Verb verb) {
  static obs::Histogram& ingest =
      obs::Registry::instance().histogram("nyqmon_server_ingest_latency_ns");
  static obs::Histogram& query =
      obs::Registry::instance().histogram("nyqmon_server_query_latency_ns");
  static obs::Histogram& stats =
      obs::Registry::instance().histogram("nyqmon_server_stats_latency_ns");
  static obs::Histogram& checkpoint = obs::Registry::instance().histogram(
      "nyqmon_server_checkpoint_latency_ns");
  static obs::Histogram& metrics =
      obs::Registry::instance().histogram("nyqmon_server_metrics_latency_ns");
  static obs::Histogram& trace =
      obs::Registry::instance().histogram("nyqmon_server_trace_latency_ns");
  static obs::Histogram& handoff =
      obs::Registry::instance().histogram("nyqmon_server_handoff_latency_ns");
  static obs::Histogram& logs =
      obs::Registry::instance().histogram("nyqmon_server_logs_latency_ns");
  switch (verb) {
    case Verb::kIngest: return &ingest;
    case Verb::kQuery: return &query;
    case Verb::kStats: return &stats;
    case Verb::kCheckpoint: return &checkpoint;
    case Verb::kMetrics: return &metrics;
    case Verb::kTrace: return &trace;
    case Verb::kHandoff: return &handoff;
    case Verb::kLogs: return &logs;
  }
  return nullptr;  // unknown verbs answer ERR untimed
}

}  // namespace

NyqmondServer::NyqmondServer(mon::StripedRetentionStore& store,
                             sto::StorageManager* storage, ServerConfig config)
    : store_(store),
      storage_(storage),
      config_(std::move(config)),
      query_(store, config_.query) {
  NYQMON_CHECK(config_.max_frame_bytes >= 64);
  if (config_.reactors == 0)
    config_.reactors =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

NyqmondServer::~NyqmondServer() { stop(); }

void NyqmondServer::start() {
  NYQMON_CHECK_MSG(!running_.load(), "server already started");

  // Touch the per-verb histograms now: the dispatch path only registers
  // them after a frame completes, which would leave the very first
  // METRICS exposition without the per-verb series.
  verb_latency_histogram(Verb::kMetrics);

  // Everything before the loop thread spawns can throw; close whatever was
  // opened so a failed (or retried) start never leaks descriptors.
  try {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
        1)
      throw std::runtime_error("bad bind address: " + config_.bind_address);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0)
      throw_errno("bind");
    if (::listen(listen_fd_, /*backlog=*/64) < 0)
      throw_errno("listen");

    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
        0)
      throw_errno("getsockname");
    port_ = ntohs(addr.sin_port);

    if (::pipe(wake_pipe_) < 0) throw_errno("pipe");
    set_nonblocking(wake_pipe_[0]);
    set_nonblocking(listen_fd_);

    reactors_.reserve(config_.reactors);
    for (std::size_t i = 0; i < config_.reactors; ++i) {
      auto reactor = std::make_unique<Reactor>();
      reactor->index = i;
      if (::pipe(reactor->wake_pipe) < 0) throw_errno("pipe");
      set_nonblocking(reactor->wake_pipe[0]);
      reactors_.push_back(std::move(reactor));
    }
  } catch (...) {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
    if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
    listen_fd_ = wake_pipe_[0] = wake_pipe_[1] = -1;
    for (auto& reactor : reactors_) {
      if (reactor->wake_pipe[0] >= 0) ::close(reactor->wake_pipe[0]);
      if (reactor->wake_pipe[1] >= 0) ::close(reactor->wake_pipe[1]);
    }
    reactors_.clear();
    throw;
  }

  stopping_.store(false);
  running_.store(true);
  next_reactor_ = 0;
  quiesce_requested_ = false;
  quiesce_parked_ = 0;
  for (auto& reactor : reactors_) {
    Reactor* r = reactor.get();
    r->thread = std::thread([this, r] { reactor_loop(*r); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void NyqmondServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Wake the accept thread and every reactor (a parked quiesce barrier
  // also re-checks stopping_ on notify).
  const char byte = 'x';
  [[maybe_unused]] auto n = ::write(wake_pipe_[1], &byte, 1);
  for (auto& reactor : reactors_)
    n = ::write(reactor->wake_pipe[1], &byte, 1);
  quiesce_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& reactor : reactors_)
    if (reactor->thread.joinable()) reactor->thread.join();

  for (auto& reactor : reactors_) {
    // Connections the accept thread dealt but the reactor never adopted.
    for (const int fd : reactor->inbox) ::close(fd);
    reactor->inbox.clear();
    // Drain: a reply the reactor already queued belongs to a fully
    // processed request — give each such connection one bounded blocking
    // flush before closing, so clients aren't cut off mid-read for work
    // the server did.
    for (auto& conn : reactor->conns) {
      if (conn->out_sent >= conn->out.size()) continue;
      const int flags = ::fcntl(conn->fd, F_GETFL, 0);
      if (flags >= 0) ::fcntl(conn->fd, F_SETFL, flags & ~O_NONBLOCK);
      timeval timeout{0, 200000};  // 200 ms cap per connection
      ::setsockopt(conn->fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                   sizeof(timeout));
      while (conn->out_sent < conn->out.size()) {
        const ssize_t sent =
            ::send(conn->fd, conn->out.data() + conn->out_sent,
                   conn->out.size() - conn->out_sent, MSG_NOSIGNAL);
        if (sent <= 0) break;
        conn->out_sent += static_cast<std::size_t>(sent);
      }
    }
    for (auto& conn : reactor->conns) ::close(conn->fd);
    reactor->conns.clear();
    ::close(reactor->wake_pipe[0]);
    ::close(reactor->wake_pipe[1]);
  }
  reactors_.clear();
  ::close(listen_fd_);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  listen_fd_ = wake_pipe_[0] = wake_pipe_[1] = -1;

  // Final checkpoint: everything the server ingested is sealed into
  // segments and the WAL swaps fresh, so the directory recovers to exactly
  // the served state. No quiesce needed — every reactor has joined.
  checkpoint_now();
}

void NyqmondServer::accept_loop() {
  obs::set_thread_node(config_.node_name);
  pollfd fds[2];
  while (!stopping_.load()) {
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    if (::poll(fds, 2, 1000) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) continue;  // wake for shutdown
    if (fds[0].revents & POLLIN) accept_clients();
  }
}

void NyqmondServer::adopt_inbox(Reactor& reactor) {
  std::vector<int> fds;
  {
    const std::lock_guard<std::mutex> lock(reactor.inbox_mu);
    fds.swap(reactor.inbox);
  }
  for (const int fd : fds) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    reactor.conns.push_back(std::move(conn));
  }
}

void NyqmondServer::park_for_quiesce() {
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  if (!quiesce_requested_) return;
  ++quiesce_parked_;
  quiesce_cv_.notify_all();
  quiesce_cv_.wait(lock, [this] {
    return !quiesce_requested_ || stopping_.load();
  });
  --quiesce_parked_;
  quiesce_cv_.notify_all();
}

sto::FlushStats NyqmondServer::run_quiesced(
    const std::function<sto::FlushStats()>& fn) {
  // Must run on a reactor thread: the barrier below waits for every
  // *other* reactor to park, counting this thread as already parked.
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  while (quiesce_requested_) {
    // Another reactor is already quiescing: park like any reactor so its
    // barrier completes, then take our turn.
    ++quiesce_parked_;
    quiesce_cv_.notify_all();
    quiesce_cv_.wait(lock, [this] {
      return !quiesce_requested_ || stopping_.load();
    });
    --quiesce_parked_;
    quiesce_cv_.notify_all();
    if (stopping_.load()) {
      sto::FlushStats bail;
      bail.skipped = true;
      return bail;
    }
  }
  quiesce_requested_ = true;
  // Wake every reactor out of poll(2) so each reaches its loop-top park.
  const char byte = 'q';
  for (auto& reactor : reactors_)
    [[maybe_unused]] const auto n = ::write(reactor->wake_pipe[1], &byte, 1);
  quiesce_cv_.wait(lock, [this] {
    return quiesce_parked_ >= reactors_.size() - 1 || stopping_.load();
  });
  NYQMON_OBS_COUNT("nyqmon_reactor_quiesce_total", 1);
  NYQMON_OBS_RECORD(
      "nyqmon_reactor_quiesce_wait_ns",
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
  sto::FlushStats out;
  try {
    // Every other reactor is parked between dispatches: no server-side
    // INGEST can land between the flush's store snapshot and WAL swap.
    out = fn();
  } catch (...) {
    quiesce_requested_ = false;
    quiesce_cv_.notify_all();
    throw;
  }
  quiesce_requested_ = false;
  quiesce_cv_.notify_all();
  return out;
}

sto::FlushStats NyqmondServer::checkpoint_now() {
  if (config_.checkpoint_fn) return config_.checkpoint_fn();
  if (storage_ != nullptr) {
    storage_->sync();
    return storage_->flush(store_);
  }
  sto::FlushStats skipped;
  skipped.skipped = true;
  return skipped;
}

void NyqmondServer::reactor_loop(Reactor& reactor) {
  // Every span and log record produced on this thread (dispatch, engine
  // fan-out entry, checkpoint) carries the node's fleet identity, which is
  // what lets a stitched fleet timeline attribute spans to nodes.
  obs::set_thread_node(config_.node_name);
  std::vector<pollfd> fds;
  auto& conns_ = reactor.conns;
  while (!stopping_.load()) {
    // Quiesce barrier: between dispatch rounds only, so a CHECKPOINT on
    // another reactor never interleaves with a half-applied frame here.
    park_for_quiesce();
    adopt_inbox(reactor);
    fds.clear();
    fds.push_back({reactor.wake_pipe[0], POLLIN, 0});
    std::size_t reply_backlog = 0;
    std::size_t reply_frames = 0;
    bool any_stalled = false;
    for (const auto& conn : conns_) {
      const std::size_t backlog = conn->out.size() - conn->out_sent;
      reply_backlog += backlog;
      reply_frames += conn->out_frames;
      any_stalled |= conn->stalled;
      short events = 0;
      // Backpressure: stop reading once a connection is closing or its
      // reply queue is at its bound — a client that pipelines requests
      // without draining replies must not grow server memory without bound.
      if (!conn->close_after_flush && !reply_queue_full(*conn))
        events |= POLLIN;
      if (backlog > 0) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }
    // Undelivered reply bytes/frames across all connections: a sustained
    // non-zero value means clients aren't draining as fast as the reactors
    // serve. Each reactor publishes its share, then one thread sums.
    reactor.reply_backlog.store(reply_backlog, std::memory_order_relaxed);
    reactor.reply_frames.store(reply_frames, std::memory_order_relaxed);
    std::size_t total_backlog = 0;
    std::size_t total_frames = 0;
    for (const auto& r : reactors_) {
      total_backlog += r->reply_backlog.load(std::memory_order_relaxed);
      total_frames += r->reply_frames.load(std::memory_order_relaxed);
    }
    NYQMON_OBS_GAUGE_SET("nyqmon_server_reply_queue_bytes", total_backlog);
    NYQMON_OBS_GAUGE_SET("nyqmon_server_reply_queue_frames_depth",
                         total_frames);

    // A stalled connection makes no socket events until the client drains,
    // so its drop deadline must be enforced on a timeout tick.
    int poll_timeout_ms = 1000;
    if (any_stalled && config_.slow_client_timeout_ms > 0)
      poll_timeout_ms =
          std::min(poll_timeout_ms,
                   static_cast<int>(config_.slow_client_timeout_ms));
    if (::poll(fds.data(), fds.size(), poll_timeout_ms) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents & POLLIN) {
      // Drain the wake pipe (quiesce requests, new-connection deals,
      // shutdown) and restart the round: the loop top parks or adopts.
      NYQMON_OBS_COUNT("nyqmon_reactor_wakeups_total", 1);
      std::uint8_t drain[64];
      while (::read(reactor.wake_pipe[0], drain, sizeof(drain)) > 0) {
      }
      continue;
    }

    // Scan only the connections that were actually polled this round —
    // adoption above appends to conns, and fresh connections have no
    // pollfd entry (they are served from the next round on).
    const std::size_t polled = fds.size() - 1;

    // Serve clients; reap the dead ones after the scan.
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i < polled; ++i) {
      Connection& conn = *conns_[i];
      const short revents = fds[i + 1].revents;
      bool alive = true;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) alive = false;
      if (alive && (revents & POLLIN)) alive = read_client(conn, now);
      if (alive && conn.out_sent < conn.out.size()) alive = write_client(conn);
      // Requests buffered past an earlier backpressure break generate no
      // further socket events — re-dispatch them as the reply queue
      // drains. Each pass consumes at least one whole frame; a pass that
      // consumes nothing (partial frame, or the queue refilled) is done.
      while (alive && !conn.in.empty() && !reply_queue_full(conn)) {
        const std::size_t before = conn.in.size();
        alive = drain_frames(conn, now);
        if (conn.in.size() == before) break;
      }
      if (alive && conn.close_after_flush && conn.out_sent == conn.out.size())
        alive = false;
      // Slow-client tracking: a connection whose bounded reply queue is
      // still full after this round's send attempt is stalled; one that
      // stays stalled past the timeout is dropped (its replies are the
      // only thing pinning server memory).
      if (alive && reply_queue_full(conn)) {
        if (!conn.stalled) {
          conn.stalled = true;
          conn.stall_since = now;
          backpressure_stalls_.fetch_add(1);
          NYQMON_OBS_COUNT("nyqmon_server_backpressure_stalls_total", 1);
        } else if (config_.slow_client_timeout_ms > 0 &&
                   now - conn.stall_since >= std::chrono::milliseconds(
                                                 config_.slow_client_timeout_ms)) {
          slow_clients_dropped_.fetch_add(1);
          NYQMON_OBS_COUNT("nyqmon_server_slow_clients_dropped_total", 1);
          NYQMON_LOG_WARN(
              "server.slow_client_dropped",
              "fd=" + std::to_string(conn.fd) + " stalled_ms=" +
                  std::to_string(std::chrono::duration_cast<
                                     std::chrono::milliseconds>(
                                     now - conn.stall_since)
                                     .count()) +
                  " queued_bytes=" +
                  std::to_string(conn.out.size() - conn.out_sent));
          alive = false;
        }
      } else {
        conn.stalled = false;
      }
      if (!alive) dead.push_back(i);
    }
    for (std::size_t k = dead.size(); k-- > 0;) {
      ::close(conns_[dead[k]]->fd);
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(dead[k]));
      connections_closed_.fetch_add(1);
    }
  }
}

void NyqmondServer::accept_clients() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      // EMFILE/ENFILE etc. leave the pending connection queued and the
      // level-triggered POLLIN hot — back off briefly instead of spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Deal to the next reactor round-robin; the reactor adopts the fd at
    // its next loop top and owns it exclusively from then on.
    Reactor& reactor = *reactors_[next_reactor_];
    next_reactor_ = (next_reactor_ + 1) % reactors_.size();
    {
      const std::lock_guard<std::mutex> lock(reactor.inbox_mu);
      reactor.inbox.push_back(fd);
    }
    const char byte = 'c';
    [[maybe_unused]] const auto n = ::write(reactor.wake_pipe[1], &byte, 1);
    connections_accepted_.fetch_add(1);
    NYQMON_OBS_COUNT("nyqmon_reactor_clients_assigned_total", 1);
  }
}

bool NyqmondServer::read_client(
    Connection& conn, std::chrono::steady_clock::time_point polled_at) {
  std::uint8_t buf[16384];
  while (true) {
    // Backpressure inside the read burst too: once this client's reply
    // queue hits its bound, stop pulling bytes (the kernel buffer and the
    // peer's send window hold the rest until the client drains replies).
    if (reply_queue_full(conn)) break;
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.insert(conn.in.end(), buf, buf + n);
      if (conn.in.size() > config_.max_frame_bytes + 5) {
        // Drain complete frames first — a burst of legally pipelined
        // frames may exceed one frame's cap; only an *undrainable* buffer
        // this large means a single over-cap frame.
        if (!drain_frames(conn, polled_at)) return false;
        if (conn.in.size() > config_.max_frame_bytes + 5) {
          protocol_errors_.fetch_add(1);
          NYQMON_OBS_COUNT("nyqmon_server_protocol_errors_total", 1);
          NYQMON_LOG_ERROR("server.protocol_error",
                           "reason=frame_overflow buffered=" +
                               std::to_string(conn.in.size()));
          return false;
        }
      }
      continue;
    }
    if (n == 0) return false;  // orderly disconnect (possibly mid-frame)
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  return drain_frames(conn, polled_at);
}

bool NyqmondServer::write_client(Connection& conn) {
  while (conn.out_sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_sent,
                             conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // client went away mid-reply
  }
  if (conn.out_sent == conn.out.size()) {
    conn.out.clear();
    conn.out_sent = 0;
    conn.out_frames = 0;
  }
  return true;
}

bool NyqmondServer::drain_frames(
    Connection& conn, std::chrono::steady_clock::time_point polled_at) {
  // Past a corrupt length prefix the byte stream has no trustworthy frame
  // boundaries — never parse again on this connection, just flush the ERR.
  if (conn.close_after_flush) return write_client(conn);
  std::size_t consumed = 0;
  while (conn.in.size() - consumed >= 4) {
    // Stop dispatching once the reply queue hits its bound; the remaining
    // input stays buffered and POLLIN stays suppressed until the client
    // reads its replies. Bounds conn.out at the byte bound + one reply.
    if (reply_queue_full(conn)) break;
    sto::ByteReader prefix(
        std::span<const std::uint8_t>(conn.in).subspan(consumed, 4));
    const std::uint32_t body_len = prefix.get_u32();
    if (body_len == 0 || body_len > config_.max_frame_bytes) {
      // Unsynchronizable: answer and close once the error is flushed.
      protocol_errors_.fetch_add(1);
      NYQMON_OBS_COUNT("nyqmon_server_protocol_errors_total", 1);
      NYQMON_LOG_ERROR("server.protocol_error",
                       "reason=bad_frame_length body_len=" +
                           std::to_string(body_len));
      const auto err = error_frame("bad frame length");
      conn.out.insert(conn.out.end(), err.begin(), err.end());
      conn.close_after_flush = true;
      conn.in.clear();
      consumed = 0;
      break;
    }
    if (conn.in.size() - consumed < 4u + body_len) break;  // partial frame
    dispatch(conn,
             std::span<const std::uint8_t>(conn.in).subspan(consumed + 4,
                                                            body_len),
             polled_at);
    consumed += 4u + body_len;
  }
  if (consumed > 0)
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(consumed));
  // Opportunistic flush; POLLOUT picks up whatever the socket won't take.
  return write_client(conn);
}

void NyqmondServer::dispatch(Connection& conn,
                             std::span<const std::uint8_t> body,
                             std::chrono::steady_clock::time_point polled_at) {
  frames_.fetch_add(1);
  NYQMON_OBS_COUNT("nyqmon_server_frames_total", 1);
  // Distributed tracing: peel the optional TraceContext trailer off the
  // body *before* any decoding (payload decoders enforce exact-remaining),
  // then adopt it for the handler's duration so the verb span — and every
  // span nested under it — joins the remote caller's trace. A request with
  // no context originates a fresh trace when capture is armed, so even a
  // direct `nyqmon_ctl` query gets one coherent trace_id.
  TraceContext trace_ctx = strip_trace_context(body);
  if (!trace_ctx.active() && obs::TraceRecorder::instance().enabled())
    trace_ctx.trace_id = obs::next_span_id();
  obs::ScopedThreadTraceContext adopt(trace_ctx.trace_id,
                                      trace_ctx.parent_span_id);
  sto::ByteReader reader(body);
  const auto verb = static_cast<Verb>(reader.get_u8());
  NYQMON_TRACE_SPAN(verb_name(verb), "server");
  const auto t_dispatch = std::chrono::steady_clock::now();
  // Queueing behind this reactor: the frames of other connections read and
  // dispatched earlier in the same poll(2) round. A lower bound — a frame
  // that arrived during an earlier dispatch is only seen at this round's
  // poll return.
  NYQMON_OBS_RECORD("nyqmon_reactor_dispatch_wait_ns",
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t_dispatch - polled_at)
                        .count());

  std::vector<std::uint8_t> reply;
  bool intercepted = false;
  try {
    if (config_.intercept) {
      if (auto hooked = config_.intercept(verb, reader)) {
        reply = std::move(*hooked);
        intercepted = true;
      }
    }
    if (!intercepted) switch (verb) {
      case Verb::kIngest:
        ingest_frames_.fetch_add(1);
        reply = handle_ingest(reader);
        break;
      case Verb::kQuery:
        query_frames_.fetch_add(1);
        reply = handle_query(reader);
        break;
      case Verb::kStats:
        stats_frames_.fetch_add(1);
        reply = handle_stats();
        break;
      case Verb::kCheckpoint:
        checkpoint_frames_.fetch_add(1);
        reply = handle_checkpoint();
        break;
      case Verb::kMetrics:
        metrics_frames_.fetch_add(1);
        reply = handle_metrics();
        break;
      case Verb::kTrace:
        trace_frames_.fetch_add(1);
        reply = handle_trace();
        break;
      case Verb::kHandoff:
        handoff_frames_.fetch_add(1);
        reply = handle_handoff(reader);
        break;
      case Verb::kLogs:
        logs_frames_.fetch_add(1);
        reply = handle_logs();
        break;
      default:
        protocol_errors_.fetch_add(1);
        NYQMON_OBS_COUNT("nyqmon_server_protocol_errors_total", 1);
        NYQMON_LOG_ERROR("server.protocol_error",
                         "reason=unknown_verb verb=" +
                             std::to_string(static_cast<unsigned>(verb)));
        reply = error_frame("unknown verb");
        break;
    }
  } catch (const std::exception& e) {
    protocol_errors_.fetch_add(1);
    NYQMON_OBS_COUNT("nyqmon_server_protocol_errors_total", 1);
    // A failed check's source location goes to the log, never to the
    // client: what() leaves it out.
    const auto* check = dynamic_cast<const CheckLocation*>(&e);
    NYQMON_LOG_ERROR("server.dispatch_error",
                     std::string("verb=") + verb_name(verb) +
                         " what=" + e.what() +
                         (check != nullptr ? " at=" + check->where() : ""));
    reply = error_frame(e.what());
  }
  if (obs::Histogram* h = verb_latency_histogram(verb))
    h->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t_dispatch)
            .count()));
  conn.out.insert(conn.out.end(), reply.begin(), reply.end());
  ++conn.out_frames;
}

std::vector<std::uint8_t> NyqmondServer::handle_ingest(
    sto::ByteReader& reader) {
  const auto req = decode_ingest(reader);
  if (!req.has_value()) return error_frame("malformed INGEST payload");
  // One stripe-locked step: connections on different reactors may race to
  // create the same new stream. A new stream whose rate lies outside
  // [1e-9, 1e6] Hz, or whose t0 is not finite, throws (ERR via dispatch)
  // and creates nothing.
  const std::size_t total = store_.create_or_append(
      req->stream, req->rate_hz, req->t0, req->values);
  samples_ingested_.fetch_add(req->values.size());
  std::vector<std::uint8_t> payload;
  sto::put_u64(payload, total);
  return ok_frame(payload);
}

std::vector<std::uint8_t> NyqmondServer::handle_query(sto::ByteReader& reader) {
  std::uint8_t flags = 0;
  const auto spec = decode_query(reader, flags);
  if (!spec.has_value()) return error_frame("malformed QUERY payload");
  spec->validate();  // throws -> ERR via dispatch
  const qry::QueryResponse response = query_.run(*spec);
  const bool want_explain = (flags & kQueryWantExplain) != 0;
  QueryExplainBlock explain;
  if (want_explain) {
    explain.total_ns = response.total_ns;
    explain.stages.reserve(response.stages.size());
    for (const qry::QueryStageTiming& st : response.stages)
      explain.stages.push_back({st.stage, st.ns});
  }
  return capped_ok_frame(
      encode_query_reply(*response.result, response.cache_hit,
                         (flags & kQueryWantMatched) != 0,
                         want_explain ? &explain : nullptr),
      config_.max_frame_bytes,
      "query result exceeds the frame cap; narrow the selector/range or "
      "coarsen step_s");
}

std::vector<std::uint8_t> NyqmondServer::handle_stats() {
  const mon::StoreRollup rollup = store_.rollup();
  const qry::QueryEngineStats q = query_.stats();
  char json[768];
  std::snprintf(
      json, sizeof(json),
      "{\"streams\":%zu,\"ingested_samples\":%zu,\"stored_samples\":%zu,"
      "\"bytes_raw\":%llu,\"bytes_stored\":%llu,"
      "\"queries\":%llu,\"cache_hits\":%llu,\"cache_misses\":%llu,"
      "\"frames\":%llu,\"ingest_frames\":%llu,\"query_frames\":%llu,"
      "\"protocol_errors\":%llu,\"samples_ingested\":%llu,"
      "\"connections_accepted\":%llu,\"reactors\":%zu}",
      rollup.streams, rollup.ingested_samples, rollup.stored_samples,
      static_cast<unsigned long long>(rollup.bytes_raw),
      static_cast<unsigned long long>(rollup.bytes_stored),
      static_cast<unsigned long long>(q.queries),
      static_cast<unsigned long long>(q.cache.hits),
      static_cast<unsigned long long>(q.cache.misses),
      static_cast<unsigned long long>(frames_.load()),
      static_cast<unsigned long long>(ingest_frames_.load()),
      static_cast<unsigned long long>(query_frames_.load()),
      static_cast<unsigned long long>(protocol_errors_.load()),
      static_cast<unsigned long long>(samples_ingested_.load()),
      static_cast<unsigned long long>(connections_accepted_.load()),
      config_.reactors);
  return ok_frame(text_bytes(json));
}

std::vector<std::uint8_t> NyqmondServer::handle_checkpoint() {
  CheckpointReply reply;
  if (config_.checkpoint_fn || storage_ != nullptr) {
    // Reactor-aware quiesce: park every other reactor before the flush so
    // no server-side INGEST lands between the store snapshot and the WAL
    // swap (the checkpoint delegate only quiesces *its own* writers, e.g.
    // the StreamingRuntime scheduler).
    const sto::FlushStats flush =
        run_quiesced([this] { return checkpoint_now(); });
    reply.persisted = config_.checkpoint_fn ? !flush.skipped : true;
    reply.chunks = flush.chunks;
    reply.bytes_written = flush.bytes_written;
  }
  return ok_frame(encode_checkpoint_reply(reply));
}

std::vector<std::uint8_t> NyqmondServer::handle_metrics() {
  return capped_ok_frame(
      text_bytes(obs::Registry::instance().render_prometheus()),
      config_.max_frame_bytes, "metrics exposition exceeds the frame cap");
}

std::vector<std::uint8_t> NyqmondServer::handle_trace() {
  // Draining consumes the buffered events: two TRACE frames in a row
  // return disjoint windows of activity.
  return capped_ok_frame(
      text_bytes(obs::TraceRecorder::instance().export_chrome_json()),
      config_.max_frame_bytes, "trace export exceeds the frame cap");
}

std::vector<std::uint8_t> NyqmondServer::handle_logs() {
  // Consuming drain, like TRACE: two LOGS frames in a row return disjoint
  // batches of records.
  return capped_ok_frame(
      text_bytes(obs::LogRecorder::instance().export_text()),
      config_.max_frame_bytes, "log export exceeds the frame cap");
}

std::vector<std::uint8_t> NyqmondServer::handle_handoff(
    sto::ByteReader& reader) {
  const auto direction = static_cast<HandoffDirection>(reader.get_u8());
  if (!reader.ok()) return error_frame("malformed HANDOFF payload");

  if (direction == HandoffDirection::kExport) {
    const std::string selector = reader.get_string();
    if (!reader.ok() || reader.remaining() != 0 || selector.empty())
      return error_frame("malformed HANDOFF payload");
    std::vector<std::string> names;
    if (qry::is_exact(selector)) {
      if (store_.find_meta(selector).has_value()) names.push_back(selector);
    } else {
      for (auto& name : store_.stream_names())
        if (qry::match_glob(selector, name)) names.push_back(std::move(name));
    }
    // Non-destructive: the exporter keeps serving its copy until the
    // operator retires it; mid-handoff duplicates are deduped at query
    // merge time (query/merge.h). One snapshot acquisition covers every
    // matched stream — the segment encoding below runs lock-free against
    // the captured view instead of re-locking per stream.
    const mon::ReadSnapshot snap = store_.acquire_snapshot(names);
    sto::SegmentWriter writer;
    for (const std::string& name : names)
      writer.add_stream(snap.export_stream(name));
    HandoffExportReply reply;
    reply.streams = static_cast<std::uint32_t>(writer.stats().streams);
    reply.samples = writer.stats().samples;
    if (4 + 8 + writer.bytes().size() + 1 >= config_.max_frame_bytes)
      return error_frame(
          "handoff export exceeds the frame cap; narrow the selector");
    reply.segment = writer.bytes();
    return ok_frame(encode_handoff_export_reply(reply));
  }

  if (direction == HandoffDirection::kImport) {
    const auto segment = reader.get_bytes(reader.remaining());
    std::map<std::string, mon::StreamSnapshot> streams;
    sto::read_segment_bytes(segment, streams);  // throws -> ERR via dispatch
    HandoffImportReply reply;
    reply.streams = static_cast<std::uint32_t>(streams.size());
    for (const auto& [name, snap] : streams) {
      for (const auto& chunk : snap.chunks) reply.samples += chunk.values.size();
      reply.samples += snap.hot.size();
    }
    // All or nothing, atomically with respect to concurrent INGEST: an
    // import must not silently merge into streams this node already owns
    // (that would double-count on a repeated handoff). The message states
    // how many streams conflict; the detail block names up to 255 of them.
    const std::vector<std::string> existing =
        store_.restore_streams(std::move(streams));
    if (!existing.empty()) {
      std::vector<ErrorDetail> conflicts;
      for (const std::string& name : existing)
        conflicts.push_back({name, "stream already exists"});
      return error_frame_with_detail(
          "handoff import refused: " + std::to_string(existing.size()) +
              (existing.size() == 1 ? " stream already exists"
                                    : " streams already exist"),
          conflicts);
    }
    // restore_streams bypasses the ingest sink (it is the recovery path and
    // must not re-log), so durability comes from checkpointing through the
    // manifest's atomic commit before OK is answered: after this, a crash
    // recovers the imported streams. Quiesced like CHECKPOINT — other
    // reactors' INGEST must not race the flush.
    if (config_.checkpoint_fn || storage_ != nullptr) {
      const sto::FlushStats flush =
          run_quiesced([this] { return checkpoint_now(); });
      reply.persisted = config_.checkpoint_fn ? !flush.skipped : true;
    }
    return ok_frame(encode_handoff_import_reply(reply));
  }

  return error_frame("unknown HANDOFF direction");
}

ServerStats NyqmondServer::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_closed = connections_closed_.load();
  s.frames = frames_.load();
  s.ingest_frames = ingest_frames_.load();
  s.query_frames = query_frames_.load();
  s.stats_frames = stats_frames_.load();
  s.checkpoint_frames = checkpoint_frames_.load();
  s.metrics_frames = metrics_frames_.load();
  s.trace_frames = trace_frames_.load();
  s.handoff_frames = handoff_frames_.load();
  s.logs_frames = logs_frames_.load();
  s.protocol_errors = protocol_errors_.load();
  s.samples_ingested = samples_ingested_.load();
  s.backpressure_stalls = backpressure_stalls_.load();
  s.slow_clients_dropped = slow_clients_dropped_.load();
  return s;
}

}  // namespace nyqmon::srv
