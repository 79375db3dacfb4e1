#include "cluster/client.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/selector.h"

namespace nyqmon::clu {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

}  // namespace

ClusterClient::ClusterClient(ClusterConfig config)
    : config_(std::move(config)),
      ring_(config_.nodes, config_.vnodes),
      conns_(config_.nodes.size()),
      every_node_(config_.nodes.size()) {
  std::iota(every_node_.begin(), every_node_.end(), std::size_t{0});
  // Keyspace ownership as a per-backend gauge (per-mille of the hash
  // space; documented as nyqmon_cluster_backend<i>_share_permille).
  for (std::size_t i = 0; i < config_.nodes.size(); ++i)
    obs::Registry::instance()
        .gauge("nyqmon_cluster_backend" + std::to_string(i) +
               "_share_permille")
        .set(static_cast<std::int64_t>(ring_.keyspace_share(i) * 1000.0));
  // Fan-out span names are recorded by pointer, and the per-backend gather
  // histograms (documented as nyqmon_cluster_backend<i>_gather_ns) are
  // resolved by handle: look both up once so scatter() neither allocates a
  // name nor takes the registry lock on the hot path.
  fanout_names_.reserve(config_.nodes.size());
  gather_histograms_.reserve(config_.nodes.size());
  for (std::size_t i = 0; i < config_.nodes.size(); ++i) {
    fanout_names_.push_back(
        obs::intern_node_name("fanout/" + config_.nodes[i].id));
    gather_histograms_.push_back(&obs::Registry::instance().histogram(
        "nyqmon_cluster_backend" + std::to_string(i) + "_gather_ns"));
  }
}

ClusterClient::~ClusterClient() = default;

srv::NyqmonClient& ClusterClient::node(std::size_t i) {
  if (conns_[i] == nullptr) {
    const NodeDesc& desc = config_.nodes[i];
    conns_[i] = std::make_unique<srv::NyqmonClient>(
        desc.host, desc.port,
        srv::ClientOptions{config_.connect_timeout_ms, config_.io_timeout_ms,
                           config_.max_frame_bytes});
  }
  return *conns_[i];
}

void ClusterClient::reset(std::size_t i) { conns_[i].reset(); }

std::uint64_t ClusterClient::ingest(const std::string& stream, double rate_hz,
                                    double t0,
                                    std::span<const double> values) {
  const std::size_t owner = ring_.owner(stream);
  // Encode once; with an active trace the owner's dispatch span joins the
  // caller's trace, parented under the caller's current span.
  srv::IngestRequest req;
  req.stream = stream;
  req.rate_hz = rate_hz;
  req.t0 = t0;
  req.values.assign(values.begin(), values.end());
  std::vector<std::uint8_t> payload = srv::encode_ingest(req);
  const obs::ThreadTraceContext& tctx = obs::thread_trace_context();
  if (obs::TraceRecorder::instance().enabled() && tctx.trace_id != 0)
    srv::append_trace_context(
        payload, srv::TraceContext{tctx.trace_id, tctx.span_id, 1});
  return srv::retry_with_backoff(srv::RetryPolicy{}, [&] {
    try {
      const auto body = node(owner).call_ok(srv::Verb::kIngest, payload);
      sto::ByteReader reader(body);
      const std::uint64_t total = reader.get_u64();
      if (!reader.ok()) throw std::runtime_error("malformed INGEST response");
      return total;
    } catch (const srv::ServerError&) {
      throw;  // the server answered; retrying cannot change it
    } catch (const std::runtime_error&) {
      reset(owner);  // unsynchronized stream: reconnect on retry
      throw;
    }
  });
}

ScatterOutcome ClusterClient::scatter(srv::Verb verb,
                                      std::span<const std::uint8_t> payload,
                                      std::span<const std::size_t> nodes) {
  const std::size_t n = config_.nodes.size();

  // With an active thread trace context each backend asked gets its own
  // frame carrying a TraceContext trailer whose parent is a per-backend
  // fan-out span (recorded below at settle time); otherwise one shared
  // frame is byte-identical to the untraced wire.
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  const obs::ThreadTraceContext& tctx = obs::thread_trace_context();
  const bool tracing = recorder.enabled() && tctx.trace_id != 0;
  const std::uint64_t trace_t0 = tracing ? recorder.now_ns() : 0;
  std::vector<std::uint64_t> fanout_span(tracing ? n : 0, 0);
  std::vector<std::vector<std::uint8_t>> traced_requests;
  std::vector<std::uint8_t> shared_request;
  if (tracing) {
    traced_requests.resize(n);
    for (const std::size_t i : nodes) {
      fanout_span[i] = obs::next_span_id();
      std::vector<std::uint8_t> body(payload.begin(), payload.end());
      srv::append_trace_context(
          body, srv::TraceContext{tctx.trace_id, fanout_span[i], 1});
      traced_requests[i] = srv::frame(static_cast<std::uint8_t>(verb), body);
    }
  } else {
    shared_request = srv::frame(static_cast<std::uint8_t>(verb), payload);
  }

  ScatterOutcome out;
  out.payloads.resize(n);
  out.gather_ns.assign(n, 0);
  // Answered, failed, timed out, or not asked.
  std::vector<bool> settled(n, true);
  for (const std::size_t i : nodes) settled[i] = false;

  // One fan-out span per backend, closed when that backend settles (for
  // failures the span covers send → failure detection).
  auto record_fanout = [&](std::size_t i) {
    if (!tracing) return;
    recorder.record(fanout_names_[i], "cluster", trace_t0,
                    recorder.now_ns() - trace_t0, tctx.trace_id,
                    fanout_span[i], tctx.span_id, tctx.node);
  };

  auto fail = [&](std::size_t i, const std::string& why) {
    NYQMON_LOG_WARN("cluster.backend_failed",
                    "node=" + config_.nodes[i].id + " why=" + why);
    out.failures.push_back({config_.nodes[i].id, why});
    settled[i] = true;
    reset(i);
    record_fanout(i);
  };

  // Send phase: every backend asked gets the request before any reply is
  // read, so the backends work concurrently while we gather.
  const auto t_send = Clock::now();
  for (const std::size_t i : nodes) {
    try {
      node(i).send_raw(tracing ? traced_requests[i] : shared_request);
    } catch (const std::exception& e) {
      fail(i, e.what());
    }
  }

  // Gather phase: poll the outstanding sockets, assembling each backend's
  // length-prefixed reply from non-blocking reads, until every backend
  // asked has answered or its deadline passed.
  const bool bounded = config_.io_timeout_ms > 0;
  const auto deadline =
      t_send + std::chrono::milliseconds(config_.io_timeout_ms);
  std::vector<std::vector<std::uint8_t>> bufs(n);
  std::vector<pollfd> fds;
  std::vector<std::size_t> owner_of;  // fds index -> node index
  while (true) {
    fds.clear();
    owner_of.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (settled[i]) continue;
      fds.push_back({conns_[i]->fd(), POLLIN, 0});
      owner_of.push_back(i);
    }
    if (fds.empty()) break;

    int timeout_ms = 100;
    if (bounded) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline - Clock::now()).count();
      if (remaining <= 0) {
        for (const std::size_t i : owner_of) fail(i, "backend timed out");
        break;
      }
      timeout_ms = static_cast<int>(remaining);
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      for (const std::size_t i : owner_of)
        fail(i, std::string("poll: ") + std::strerror(errno));
      break;
    }

    for (std::size_t k = 0; k < fds.size(); ++k) {
      const std::size_t i = owner_of[k];
      if (!(fds[k].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      // Drain what the socket has without blocking the other backends.
      bool failed = false;
      while (true) {
        std::uint8_t chunk[16384];
        const ssize_t got =
            ::recv(fds[k].fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (got > 0) {
          bufs[i].insert(bufs[i].end(), chunk, chunk + got);
          continue;
        }
        if (got == 0) {
          fail(i, "backend closed the connection");
          failed = true;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          fail(i, std::string("recv: ") + std::strerror(errno));
          failed = true;
        }
        break;
      }
      if (failed || settled[i] || bufs[i].size() < 4) continue;

      sto::ByteReader prefix{
          std::span<const std::uint8_t>(bufs[i]).subspan(0, 4)};
      const std::uint32_t body_len = prefix.get_u32();
      if (body_len == 0 || body_len > config_.max_frame_bytes) {
        fail(i, "bad response frame length");
        continue;
      }
      if (bufs[i].size() < 4u + body_len) continue;  // partial reply
      if (bufs[i].size() > 4u + body_len) {
        fail(i, "trailing bytes after reply");  // protocol desync
        continue;
      }
      sto::ByteReader body{
          std::span<const std::uint8_t>(bufs[i]).subspan(4, body_len)};
      const auto status = static_cast<srv::Status>(body.get_u8());
      if (status == srv::Status::kOk) {
        const auto rest = body.get_bytes(body.remaining());
        out.payloads[i] = std::vector<std::uint8_t>(rest.begin(), rest.end());
        settled[i] = true;
      } else {
        const std::string message = body.get_string();
        // An ERR answer leaves the connection synchronized — no reset.
        out.failures.push_back(
            {config_.nodes[i].id,
             message.empty() ? "(no message)" : message});
        settled[i] = true;
      }
      const std::uint64_t gather = elapsed_ns(t_send);
      gather_histograms_[i]->record(gather);
      out.gather_ns[i] = gather;
      record_fanout(i);
    }
  }
  return out;
}

FleetQuery ClusterClient::query(const qry::QuerySpec& spec) {
  spec.validate();
  // Shards return raw per-stream series (plus the matched IDs); the
  // cross-stream aggregation runs centrally so FP accumulation order
  // matches a single node's exactly.
  qry::QuerySpec shard_spec = spec;
  shard_spec.aggregate = qry::Aggregation::kNone;
  const std::vector<std::uint8_t> request =
      srv::encode_query(shard_spec, srv::kQueryWantMatched);

  FleetQuery fleet;
  fleet.gather_ns.assign(config_.nodes.size(), 0);
  std::vector<qry::ShardSlice> slices;
  bool all_cached = true;
  // One scatter round to `nodes`; each OK reply decodes into a slice. The
  // decode counts toward merge_ns, the round toward scatter_ns.
  auto ask = [&](std::span<const std::size_t> nodes) {
    const auto t_scatter = Clock::now();
    ScatterOutcome scattered = scatter(srv::Verb::kQuery, request, nodes);
    fleet.scatter_ns += elapsed_ns(t_scatter);
    const auto t_decode = Clock::now();
    fleet.failures.insert(fleet.failures.end(), scattered.failures.begin(),
                          scattered.failures.end());
    for (const std::size_t i : nodes) {
      fleet.gather_ns[i] = scattered.gather_ns[i];
      if (!scattered.payloads[i].has_value()) continue;
      sto::ByteReader reader(*scattered.payloads[i]);
      auto reply = srv::decode_query_reply(reader, srv::kQueryWantMatched);
      if (!reply.has_value()) {
        fleet.failures.push_back(
            {config_.nodes[i].id, "malformed QUERY response"});
        reset(i);
        continue;
      }
      all_cached &= reply->cache_hit;
      slices.push_back({std::move(reply->matched_labels),
                        std::move(reply->series), i});
    }
    fleet.merge_ns += elapsed_ns(t_decode);
  };

  if (qry::is_exact(spec.selector)) {
    // One stream, written only to its ring owner: ask the owner alone, and
    // the others only when it answers with no series (a handoff may have
    // left the stream's data elsewhere). A failed owner is reported, not
    // routed around.
    const std::size_t owner = ring_.owner(spec.selector);
    fleet.owner_first = true;
    ask({&owner, 1});
    if (fleet.failures.empty() && slices.front().series.empty()) {
      fleet.owner_fallback = true;
      std::vector<std::size_t> others;
      others.reserve(every_node_.size() - 1);
      for (const std::size_t i : every_node_)
        if (i != owner) others.push_back(i);
      ask(others);
    }
  } else {
    ask(every_node_);
  }

  const auto t_merge = Clock::now();
  fleet.cache_hit = all_cached && fleet.failures.empty() && !slices.empty();
  fleet.merged = qry::merge_shard_slices(
      spec, std::move(slices),
      [this](std::string_view stream) { return ring_.owner(stream); });
  fleet.merge_ns += elapsed_ns(t_merge);  // shard decode + central merge
  return fleet;
}

std::vector<NodeText> ClusterClient::fleet_text(srv::Verb verb) {
  ScatterOutcome scattered = scatter(verb, {}, every_node_);
  std::vector<NodeText> out(config_.nodes.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].node = config_.nodes[i].id;
    if (scattered.payloads[i].has_value())
      out[i].text.assign(scattered.payloads[i]->begin(),
                         scattered.payloads[i]->end());
  }
  for (const srv::ErrorDetail& f : scattered.failures)
    for (NodeText& node : out)
      if (node.node == f.node && node.text.empty()) node.error = f.error;
  return out;
}

std::vector<std::optional<srv::CheckpointReply>> ClusterClient::checkpoint_all(
    std::vector<srv::ErrorDetail>& failures) {
  ScatterOutcome scattered =
      scatter(srv::Verb::kCheckpoint, {}, every_node_);
  std::vector<std::optional<srv::CheckpointReply>> out(config_.nodes.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!scattered.payloads[i].has_value()) continue;
    sto::ByteReader reader(*scattered.payloads[i]);
    auto reply = srv::decode_checkpoint_reply(reader);
    if (reply.has_value()) {
      out[i] = *reply;
    } else {
      scattered.failures.push_back(
          {config_.nodes[i].id, "malformed CHECKPOINT response"});
      reset(i);
    }
  }
  failures = std::move(scattered.failures);
  return out;
}

}  // namespace nyqmon::clu
