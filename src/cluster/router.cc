#include "cluster/router.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nyqmon::clu {

namespace {

/// "k of n backends failed" — the ERR message of a partial-failure reply;
/// the detail block carries the per-node reasons.
std::string partial_failure_message(std::size_t failed, std::size_t total) {
  return "partial failure: " + std::to_string(failed) + " of " +
         std::to_string(total) + " backends failed";
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

NyqmonRouter::NyqmonRouter(RouterConfig config)
    : config_(std::move(config)),
      ring_(config_.cluster.nodes, config_.cluster.vnodes) {
  // Seed the pool so the per-backend keyspace gauges are published before
  // the first request.
  idle_.push_back(std::make_unique<ClusterClient>(config_.cluster));
  clients_ = 1;
}

NyqmonRouter::~NyqmonRouter() { stop(); }

void NyqmonRouter::ReturnToPool::operator()(ClusterClient* client) const {
  const std::lock_guard<std::mutex> lock(router->pool_mu_);
  router->idle_.emplace_back(client);  // never reallocates: see lease()
}

NyqmonRouter::Lease NyqmonRouter::lease() {
  const std::lock_guard<std::mutex> lock(pool_mu_);
  if (idle_.empty()) {
    // Room for every client in existence, so returning one never allocates.
    idle_.reserve(++clients_);
    idle_.push_back(std::make_unique<ClusterClient>(config_.cluster));
  }
  Lease leased(idle_.back().release(), ReturnToPool{this});
  idle_.pop_back();
  return leased;
}

void NyqmonRouter::start() {
  // The server's default reactor count, one per online core: each reactor
  // runs one scatter-gather at a time on its own leased backend connections.
  srv::ServerConfig front;
  front.bind_address = config_.bind_address;
  front.port = config_.port;
  front.max_frame_bytes = config_.max_frame_bytes;
  front.node_name = config_.node_name;
  front.intercept = [this](srv::Verb verb, sto::ByteReader& reader) {
    return intercept(verb, reader);
  };
  front_ = std::make_unique<srv::NyqmondServer>(empty_store_, nullptr,
                                                std::move(front));
  front_->start();
  NYQMON_OBS_GAUGE_SET("nyqmon_router_ring_nodes_depth", ring_.size());
}

void NyqmonRouter::stop() {
  if (front_ != nullptr) front_->stop();
}

void NyqmonRouter::count_failures(
    const std::vector<srv::ErrorDetail>& failures) {
  if (failures.empty()) return;
  partial_failures_.fetch_add(1);
  backend_errors_.fetch_add(failures.size());
  NYQMON_OBS_COUNT("nyqmon_router_partial_failures_total", 1);
  NYQMON_OBS_COUNT("nyqmon_router_backend_errors_total", failures.size());
}

std::optional<std::vector<std::uint8_t>> NyqmonRouter::intercept(
    srv::Verb verb, sto::ByteReader& reader) {
  frames_.fetch_add(1);
  NYQMON_OBS_COUNT("nyqmon_router_frames_total", 1);
  switch (verb) {
    case srv::Verb::kIngest:
      return route_ingest(reader);
    case srv::Verb::kQuery:
      return scatter_query(reader);
    case srv::Verb::kStats:
      return fleet_stats_json();
    case srv::Verb::kCheckpoint:
      return scatter_checkpoint();
    case srv::Verb::kHandoff:
      return srv::error_frame(
          "HANDOFF addresses a backend node directly, not the router");
    case srv::Verb::kLogs:
      // The router's own structured-log ring: built-in handler.
      return std::nullopt;
    case srv::Verb::kMetrics: {
      if (reader.remaining() == 0)
        return std::nullopt;  // router's own registry: built-in handler
      const std::uint8_t flags = reader.get_u8();
      if (!reader.ok() || reader.remaining() != 0)
        return srv::error_frame("malformed METRICS payload");
      if ((flags & srv::kMetricsFleet) != 0) return fleet_metrics_text();
      // Flags byte consumed, so serve the local exposition here instead of
      // falling through (nullopt promises an untouched reader).
      return srv::capped_ok_frame(
          srv::text_bytes(obs::Registry::instance().render_prometheus()),
          config_.max_frame_bytes, "metrics exposition exceeds the frame cap");
    }
    case srv::Verb::kTrace: {
      if (reader.remaining() == 0)
        return std::nullopt;  // router's own ring: built-in handler
      const std::uint8_t flags = reader.get_u8();
      if (!reader.ok() || reader.remaining() != 0)
        return srv::error_frame("malformed TRACE payload");
      if ((flags & srv::kTraceFleet) != 0) return fleet_trace_json();
      return srv::capped_ok_frame(
          srv::text_bytes(obs::TraceRecorder::instance().export_chrome_json()),
          config_.max_frame_bytes, "trace export exceeds the frame cap");
    }
  }
  return std::nullopt;  // unknown verb: built-in ERR path
}

std::vector<std::uint8_t> NyqmonRouter::route_ingest(sto::ByteReader& reader) {
  const auto req = srv::decode_ingest(reader);
  if (!req.has_value()) return srv::error_frame("malformed INGEST payload");
  ingests_routed_.fetch_add(1);
  try {
    const std::uint64_t total =
        lease()->ingest(req->stream, req->rate_hz, req->t0, req->values);
    std::vector<std::uint8_t> payload;
    sto::put_u64(payload, total);
    return srv::ok_frame(payload);
  } catch (const srv::ServerError& e) {
    count_failures({{ring_.owner_node(req->stream).id, e.what()}});
    return srv::error_frame_with_detail(
        e.what(),
        e.details().empty()
            ? std::vector<srv::ErrorDetail>{
                  {ring_.owner_node(req->stream).id, e.what()}}
            : e.details());
  } catch (const std::exception& e) {
    const std::vector<srv::ErrorDetail> detail{
        {ring_.owner_node(req->stream).id, e.what()}};
    count_failures(detail);
    return srv::error_frame_with_detail("ingest owner unreachable", detail);
  }
}

std::vector<std::uint8_t> NyqmonRouter::scatter_query(
    sto::ByteReader& reader) {
  std::uint8_t flags = 0;
  const auto spec = srv::decode_query(reader, flags);
  if (!spec.has_value()) return srv::error_frame("malformed QUERY payload");
  queries_scattered_.fetch_add(1);
  NYQMON_OBS_TIMER("nyqmon_router_fanout_latency_ns");

  const auto t0 = std::chrono::steady_clock::now();
  FleetQuery fleet = lease()->query(*spec);  // validate() throws -> ERR
  if (fleet.owner_first) {
    owner_queries_.fetch_add(1);
    NYQMON_OBS_COUNT("nyqmon_router_owner_queries_total", 1);
  }
  if (fleet.owner_fallback) {
    owner_fallbacks_.fetch_add(1);
    NYQMON_OBS_COUNT("nyqmon_router_owner_fallbacks_total", 1);
  }
  if (!fleet.failures.empty()) {
    count_failures(fleet.failures);
    return srv::error_frame_with_detail(
        partial_failure_message(fleet.failures.size(), ring_.size()),
        fleet.failures);
  }
  qry::QueryResult result;
  result.spec = *spec;
  result.matched = std::move(fleet.merged.matched);
  result.reconstructed = std::move(fleet.merged.reconstructed);
  result.series = std::move(fleet.merged.series);
  // The router's EXPLAIN: scatter + merge partition the measured total;
  // the per-backend gather rows overlap scatter (informational, see
  // protocol.h), so renderers exclude backend/* from percentage sums.
  srv::QueryExplainBlock explain;
  if ((flags & srv::kQueryWantExplain) != 0) {
    explain.stages.push_back({"scatter", fleet.scatter_ns});
    explain.stages.push_back({"merge", fleet.merge_ns});
    for (std::size_t i = 0; i < fleet.gather_ns.size(); ++i)
      if (fleet.gather_ns[i] != 0)
        explain.stages.push_back(
            {"backend/" + config_.cluster.nodes[i].id, fleet.gather_ns[i]});
    explain.total_ns = elapsed_ns(t0);
  }
  return srv::capped_ok_frame(
      srv::encode_query_reply(
          result, fleet.cache_hit, (flags & srv::kQueryWantMatched) != 0,
          (flags & srv::kQueryWantExplain) != 0 ? &explain : nullptr),
      config_.max_frame_bytes,
      "query result exceeds the frame cap; narrow the selector/range or "
      "coarsen step_s");
}

std::vector<std::uint8_t> NyqmonRouter::fleet_stats_json() {
  const std::vector<NodeText> backends =
      lease()->fleet_text(srv::Verb::kStats);
  char head[400];
  std::snprintf(
      head, sizeof(head),
      "{\"router\":{\"nodes\":%zu,\"reactors\":%zu,\"frames\":%llu,"
      "\"ingests_routed\":%llu,\"queries_scattered\":%llu,"
      "\"owner_queries\":%llu,\"owner_fallbacks\":%llu,"
      "\"partial_failures\":%llu,\"backend_errors\":%llu},\"backends\":[",
      ring_.size(), reactors(),
      static_cast<unsigned long long>(frames_.load()),
      static_cast<unsigned long long>(ingests_routed_.load()),
      static_cast<unsigned long long>(queries_scattered_.load()),
      static_cast<unsigned long long>(owner_queries_.load()),
      static_cast<unsigned long long>(owner_fallbacks_.load()),
      static_cast<unsigned long long>(partial_failures_.load()),
      static_cast<unsigned long long>(backend_errors_.load()));
  std::string json(head);
  for (std::size_t i = 0; i < backends.size(); ++i) {
    if (i > 0) json += ',';
    json += "{\"node\":\"" + backends[i].node + "\",";
    if (backends[i].error.empty()) {
      json += "\"stats\":" +
              (backends[i].text.empty() ? std::string("{}")
                                        : backends[i].text);
    } else {
      json += "\"error\":\"" + backends[i].error + "\"";
    }
    json += '}';
  }
  json += "]}";
  return srv::capped_ok_frame(srv::text_bytes(json), config_.max_frame_bytes,
                              "fleet stats exceed the frame cap");
}

std::vector<std::uint8_t> NyqmonRouter::scatter_checkpoint() {
  std::vector<srv::ErrorDetail> failures;
  const auto replies = lease()->checkpoint_all(failures);
  if (!failures.empty()) {
    count_failures(failures);
    return srv::error_frame_with_detail(
        partial_failure_message(failures.size(), ring_.size()), failures);
  }
  srv::CheckpointReply merged;
  merged.persisted = true;
  for (const auto& reply : replies) {
    if (!reply.has_value()) continue;
    merged.persisted = merged.persisted && reply->persisted;
    merged.chunks += reply->chunks;
    merged.bytes_written += reply->bytes_written;
  }
  return srv::ok_frame(srv::encode_checkpoint_reply(merged));
}

std::vector<std::uint8_t> NyqmonRouter::fleet_trace_json() {
  // Scatter first: the fan-out spans of this very TRACE round settle
  // before the router drains its own ring, so they make the stitch too.
  // Stitching is best-effort — an unreachable backend just contributes no
  // spans (its failure is still counted) rather than failing the drain.
  const Lease client = lease();
  ScatterOutcome scattered =
      client->scatter(srv::Verb::kTrace, {}, client->every_node());
  count_failures(scattered.failures);
  std::vector<std::string> parts;
  parts.reserve(scattered.payloads.size() + 1);
  for (const auto& payload : scattered.payloads)
    if (payload.has_value())
      parts.emplace_back(payload->begin(), payload->end());
  parts.push_back(obs::TraceRecorder::instance().export_chrome_json());
  return srv::capped_ok_frame(srv::text_bytes(obs::merge_chrome_json(parts)),
                              config_.max_frame_bytes,
                              "stitched trace export exceeds the frame cap");
}

std::vector<std::uint8_t> NyqmonRouter::fleet_metrics_text() {
  const std::vector<NodeText> backends =
      lease()->fleet_text(srv::Verb::kMetrics);
  std::string text = "# == node " + config_.node_name + " ==\n" +
                     obs::Registry::instance().render_prometheus();
  for (const NodeText& backend : backends) {
    text += "# == node " + backend.node + " ==\n";
    if (backend.error.empty())
      text += backend.text;
    else
      text += "# error: " + backend.error + "\n";
  }
  return srv::capped_ok_frame(srv::text_bytes(text), config_.max_frame_bytes,
                              "fleet metrics exceeds the frame cap");
}

RouterStats NyqmonRouter::stats() const {
  RouterStats s;
  s.frames = frames_.load();
  s.ingests_routed = ingests_routed_.load();
  s.queries_scattered = queries_scattered_.load();
  s.owner_queries = owner_queries_.load();
  s.owner_fallbacks = owner_fallbacks_.load();
  s.partial_failures = partial_failures_.load();
  s.backend_errors = backend_errors_.load();
  return s;
}

}  // namespace nyqmon::clu
