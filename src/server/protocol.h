// nyqmond wire protocol: length-prefixed binary frames over TCP.
// Canonical spec (framing, caps, error semantics): docs/FORMATS.md.
//
// Frame layout (all integers little-endian, floats IEEE-754 f64 bits):
//
//   u32 body_len | body
//
// Request  body: u8 verb   | verb payload
// Response body: u8 status | response payload       (status 0=OK, 1=ERR)
//
// An ERR payload is a u16-length-prefixed UTF-8 message. A body_len of 0 or
// larger than the server's frame cap is a protocol violation: the server
// answers with ERR and closes the connection (it cannot resynchronize a
// corrupt length prefix).
//
// Verbs:
//   INGEST (1)      u16 name_len|name, f64 rate_hz, f64 t0, u32 count,
//                   count × f64 values
//                   → OK: u64 stream_total_ingested
//                   The stream is created on first ingest (rate/t0 taken
//                   from the first frame; later frames append in grid
//                   order).
//   QUERY (2)       u16 sel_len|selector, f64 t_begin, f64 t_end,
//                   f64 step_s, u8 transform, u8 aggregation
//                   → OK: u8 cache_hit, u32 matched, u32 reconstructed,
//                     u32 n_series, then per series: u16 label_len|label,
//                     f64 t0, f64 dt, u32 n, n × f64 values
//   STATS (3)       (empty)
//                   → OK: the rest of the payload is a UTF-8 JSON object
//                     (store rollup + serving counters + server counters)
//   CHECKPOINT (4)  (empty)
//                   → OK: u8 persisted, u64 chunks, u64 bytes_written
//                   persisted=0 means the server runs without a durable
//                   tier; the frame still succeeds.
//   METRICS (5)     (empty)
//                   → OK: the rest of the payload is UTF-8 Prometheus text
//                     exposition of the process metric registry (catalog:
//                     docs/OBSERVABILITY.md)
//   TRACE (6)       (empty), optionally u8 flags (bit 0 kTraceFleet: a
//                   router scatter-gathers every backend's drain and
//                   stitches them with its own into one timeline)
//                   → OK: the rest of the payload is UTF-8 JSON in the
//                     chrome://tracing Trace Event Format, draining the
//                     in-process trace ring (empty traceEvents list when
//                     capture is disabled server-side). The drain is
//                     consuming and atomic: concurrent TRACE requests
//                     each get a complete, disjoint batch.
//   HANDOFF (7)     u8 direction, then
//                     direction 0 (EXPORT): u16 sel_len|selector
//                     → OK: u32 n_streams, u64 n_samples, segment-format
//                       bytes (storage/segment.h, "NYQSEG1\n" magic) for
//                       every stream matching the selector
//                     direction 1 (IMPORT): segment-format bytes
//                     → OK: u32 n_streams, u64 n_samples, u8 persisted
//                     The cluster topology-change path: a leaving node's
//                     sealed state ships to its new owner as a segment
//                     image; import restores the streams and (when a
//                     durable tier is attached) checkpoints them through
//                     the manifest's atomic commit, so the handoff is
//                     WAL/segment-recoverable the moment OK is answered.
//   LOGS (8)        (empty)
//                   → OK: the rest of the payload is UTF-8 `nyqlog v1`
//                     text — a consuming drain of the structured log
//                     ring (src/obs/log.h; schema: docs/OBSERVABILITY.md)
//
// Extensions (all optional, absent bytes mean "off" — a pre-cluster peer
// interoperates unchanged):
//   * QUERY requests may append u8 flags. Bit 0 (kQueryWantMatched) asks
//     the reply to append, after the series block: u32 n_matched, then
//     n_matched × u16 len|stream_id (the matched set, lexicographic).
//     The cluster router needs the labels — not just the count — to
//     dedupe streams that two shards both hold mid-handoff. Bit 1
//     (kQueryWantExplain) asks the reply to append — after the
//     matched-labels block, if any — a per-request stage breakdown:
//     u64 total_ns, u8 n_stages, then per stage u16 len|name, u64 ns.
//   * METRICS and TRACE requests may append u8 flags; bit 0 asks a
//     router to scatter-gather the whole fleet (kMetricsFleet /
//     kTraceFleet). Backends ignore the flags byte.
//   * An ERR payload may append detail entries after the message:
//     u8 n_details, then per entry u16 len|node_id, u16 len|error. The
//     router's partial-failure report: which backends failed and why.
//     At most 255 entries are sent.
//   * Any request body may append a 21-byte TraceContext trailer
//     (u64 trace_id, u64 parent_span_id, u8 sampled, u32 magic "NYTC"),
//     detected by the magic at the body's tail and stripped before verb
//     decoding. It propagates distributed-tracing identity across hops
//     so ScopedSpans on every node share one trace_id. An old peer that
//     ignores the convention still interoperates: for payload-carrying
//     verbs the trailer makes the strict decoder answer ERR (framing
//     intact, connection kept), and routers simply don't inject toward
//     peers that predate it — absent bytes mean "no context".
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "query/spec.h"
#include "storage/io.h"
#include "util/check.h"

namespace nyqmon::srv {

/// Default cap on one frame body; oversized length prefixes are answered
/// with ERR and the connection is closed.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

enum class Verb : std::uint8_t {
  kIngest = 1,
  kQuery = 2,
  kStats = 3,
  kCheckpoint = 4,
  kMetrics = 5,
  kTrace = 6,
  kHandoff = 7,
  kLogs = 8,
};

enum class Status : std::uint8_t { kOk = 0, kError = 1 };

/// QUERY request flag bits (the optional trailing u8).
inline constexpr std::uint8_t kQueryWantMatched = 0x01;
inline constexpr std::uint8_t kQueryWantExplain = 0x02;

/// TRACE / METRICS request flag bits (optional trailing u8): bit 0 asks a
/// router to scatter-gather the whole fleet instead of answering locally.
inline constexpr std::uint8_t kTraceFleet = 0x01;
inline constexpr std::uint8_t kMetricsFleet = 0x01;

/// HANDOFF direction byte.
enum class HandoffDirection : std::uint8_t { kExport = 0, kImport = 1 };

struct IngestRequest {
  std::string stream;
  double rate_hz = 0.0;
  double t0 = 0.0;
  std::vector<double> values;
};

// ------------------------------------------------- trace-context trailer ---

/// Magic closing a TraceContext trailer; the bytes "NYTC" little-endian.
inline constexpr std::uint32_t kTraceContextMagic = 0x4354594eu;
/// Trailer size: u64 trace_id + u64 parent_span_id + u8 sampled + u32 magic.
inline constexpr std::size_t kTraceContextBytes = 21;

/// Distributed-tracing identity carried as optional trailing bytes on any
/// request body. trace_id 0 means "no context" and is never emitted.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  bool sampled = false;
  bool active() const noexcept { return trace_id != 0; }
};

inline void append_trace_context(std::vector<std::uint8_t>& payload,
                                 const TraceContext& ctx) {
  sto::put_u64(payload, ctx.trace_id);
  sto::put_u64(payload, ctx.parent_span_id);
  sto::put_u8(payload, ctx.sampled ? 1 : 0);
  sto::put_u32(payload, kTraceContextMagic);
}

/// Detect and strip a TraceContext trailer from the tail of a request
/// body (verb byte included in `body`). Returns the context — inactive if
/// no well-formed trailer is present, in which case `body` is untouched.
/// A payload whose last 21 bytes happen to end in the magic is
/// misdetected with probability 2^-32 per request; the failure mode is an
/// ERR reply (truncated decode), never corruption.
inline TraceContext strip_trace_context(std::span<const std::uint8_t>& body) {
  TraceContext ctx;
  if (body.size() < 1 + kTraceContextBytes) return ctx;  // verb + trailer
  sto::ByteReader r(body.subspan(body.size() - kTraceContextBytes));
  const std::uint64_t trace_id = r.get_u64();
  const std::uint64_t parent_span_id = r.get_u64();
  const std::uint8_t sampled = r.get_u8();
  const std::uint32_t magic = r.get_u32();
  if (!r.ok() || magic != kTraceContextMagic || trace_id == 0) return ctx;
  ctx.trace_id = trace_id;
  ctx.parent_span_id = parent_span_id;
  ctx.sampled = sampled != 0;
  body = body.first(body.size() - kTraceContextBytes);
  return ctx;
}

/// One named stage of a query EXPLAIN breakdown.
struct ExplainEntry {
  std::string stage;
  std::uint64_t ns = 0;
};

/// The EXPLAIN block of a QUERY reply (kQueryWantExplain). Stage names
/// prefixed "backend/" are informational fan-out latencies that overlap
/// in time; all other stages are contiguous and sum to ~total_ns.
struct QueryExplainBlock {
  std::uint64_t total_ns = 0;
  std::vector<ExplainEntry> stages;
};

/// Decoded QUERY response.
struct QueryReply {
  bool cache_hit = false;
  std::uint32_t matched = 0;
  std::uint32_t reconstructed = 0;
  std::vector<qry::QuerySeries> series;
  /// Present only when the request set kQueryWantMatched: the matched
  /// stream IDs themselves, lexicographic.
  std::vector<std::string> matched_labels;
  /// Present only when the request set kQueryWantExplain (and the server
  /// understands the flag — an old peer simply omits the block).
  std::optional<QueryExplainBlock> explain;
};

/// One (node, error) entry of an ERR-with-detail payload.
struct ErrorDetail {
  std::string node;
  std::string error;
};

/// Decoded HANDOFF IMPORT response.
struct HandoffImportReply {
  std::uint32_t streams = 0;
  std::uint64_t samples = 0;
  /// True when the import was checkpointed into the durable tier before
  /// OK was answered (the node runs with storage attached).
  bool persisted = false;
};

/// Decoded HANDOFF EXPORT response.
struct HandoffExportReply {
  std::uint32_t streams = 0;
  std::uint64_t samples = 0;
  /// Segment-format image (storage/segment.h) of the exported streams.
  std::vector<std::uint8_t> segment;
};

/// Decoded CHECKPOINT response.
struct CheckpointReply {
  bool persisted = false;
  std::uint64_t chunks = 0;
  std::uint64_t bytes_written = 0;
};

// ------------------------------------------------------------- framing ----

/// u32 length prefix + body (u8 first_byte + payload). The payload must
/// fit the u32 prefix; frame producers cap it (the server refuses replies
/// over its frame cap) rather than let the prefix wrap.
inline std::vector<std::uint8_t> frame(std::uint8_t first_byte,
                                       std::span<const std::uint8_t> payload) {
  NYQMON_CHECK_MSG(payload.size() < 0xffffffffull,
                   "frame payload exceeds the u32 length prefix");
  std::vector<std::uint8_t> out;
  out.reserve(5 + payload.size());
  sto::put_u32(out, static_cast<std::uint32_t>(1 + payload.size()));
  sto::put_u8(out, first_byte);
  sto::put_bytes(out, payload);
  return out;
}

inline std::vector<std::uint8_t> request_frame(
    Verb verb, std::span<const std::uint8_t> payload) {
  return frame(static_cast<std::uint8_t>(verb), payload);
}

inline std::vector<std::uint8_t> ok_frame(
    std::span<const std::uint8_t> payload) {
  return frame(static_cast<std::uint8_t>(Status::kOk), payload);
}

/// ERR carrying `message`. Like every string in an ERR payload, it is cut
/// to the 65535 bytes a str16 field holds, so an ERR always encodes:
/// dispatch's catch path reports whatever an exception says.
inline std::vector<std::uint8_t> error_frame(const std::string& message) {
  std::vector<std::uint8_t> payload;
  sto::put_string(payload, message.substr(0, sto::kMaxStr16Bytes));
  return frame(static_cast<std::uint8_t>(Status::kError), payload);
}

/// ERR carrying per-node failure detail (the router's partial-failure
/// report, a HANDOFF import's conflict list). Old clients read the message
/// and ignore the trailing block. The block's count is one byte, so only
/// the first 255 entries are sent; a message that must report the total
/// has to state it itself.
inline std::vector<std::uint8_t> error_frame_with_detail(
    const std::string& message, const std::vector<ErrorDetail>& details) {
  const std::size_t n = std::min<std::size_t>(details.size(), 255);
  std::vector<std::uint8_t> payload;
  sto::put_string(payload, message.substr(0, sto::kMaxStr16Bytes));
  sto::put_u8(payload, static_cast<std::uint8_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    sto::put_string(payload, details[i].node.substr(0, sto::kMaxStr16Bytes));
    sto::put_string(payload,
                    details[i].error.substr(0, sto::kMaxStr16Bytes));
  }
  return frame(static_cast<std::uint8_t>(Status::kError), payload);
}

/// OK carrying `payload`, or ERR `refusal` when the reply would not fit one
/// frame under `max_frame_bytes`: clients reject bodies over their cap, and
/// past 4 GiB the u32 length prefix would wrap.
inline std::vector<std::uint8_t> capped_ok_frame(
    std::span<const std::uint8_t> payload, std::size_t max_frame_bytes,
    const std::string& refusal) {
  if (payload.size() >= max_frame_bytes) return error_frame(refusal);
  return ok_frame(payload);
}

/// The bytes of a text reply (STATS JSON, METRICS/TRACE/LOGS exports). The
/// span views `text`, so use it before the text goes away.
inline std::span<const std::uint8_t> text_bytes(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

/// Parse the optional detail block after an ERR message. The reader must
/// be positioned just past the message string; absent or malformed
/// trailing bytes yield an empty list (detail is best-effort).
inline std::vector<ErrorDetail> decode_error_detail(sto::ByteReader& r) {
  std::vector<ErrorDetail> details;
  if (r.remaining() == 0) return details;
  const std::uint8_t n = r.get_u8();
  for (std::uint8_t i = 0; i < n; ++i) {
    ErrorDetail d;
    d.node = r.get_string();
    d.error = r.get_string();
    if (!r.ok()) return {};
    details.push_back(std::move(d));
  }
  return details;
}

// ------------------------------------------------------------- payloads ---

inline std::vector<std::uint8_t> encode_ingest(const IngestRequest& req) {
  std::vector<std::uint8_t> p;
  p.reserve(2 + req.stream.size() + 20 + 8 * req.values.size());
  sto::put_string(p, req.stream);
  sto::put_f64(p, req.rate_hz);
  sto::put_f64(p, req.t0);
  sto::put_u32(p, static_cast<std::uint32_t>(req.values.size()));
  sto::put_f64s(p, req.values);
  return p;
}

inline std::optional<IngestRequest> decode_ingest(sto::ByteReader& r) {
  IngestRequest req;
  req.stream = r.get_string();
  req.rate_hz = r.get_f64();
  req.t0 = r.get_f64();
  const std::uint32_t count = r.get_u32();
  if (!r.ok() || req.stream.empty()) return std::nullopt;
  // 64-bit multiply: a 32-bit product would wrap for huge declared counts.
  if (r.remaining() != 8ull * count) return std::nullopt;  // truncated values
  req.values = r.get_f64s(count);
  if (!r.ok()) return std::nullopt;
  return req;
}

inline std::vector<std::uint8_t> encode_query(const qry::QuerySpec& spec,
                                              std::uint8_t flags = 0) {
  std::vector<std::uint8_t> p;
  sto::put_string(p, spec.selector);
  sto::put_f64(p, spec.t_begin);
  sto::put_f64(p, spec.t_end);
  sto::put_f64(p, spec.step_s);
  sto::put_u8(p, static_cast<std::uint8_t>(spec.transform));
  sto::put_u8(p, static_cast<std::uint8_t>(spec.aggregate));
  if (flags != 0) sto::put_u8(p, flags);  // absent byte == no flags
  return p;
}

inline std::optional<qry::QuerySpec> decode_query(sto::ByteReader& r,
                                                  std::uint8_t& flags) {
  qry::QuerySpec spec;
  flags = 0;
  spec.selector = r.get_string();
  spec.t_begin = r.get_f64();
  spec.t_end = r.get_f64();
  spec.step_s = r.get_f64();
  const std::uint8_t transform = r.get_u8();
  const std::uint8_t aggregate = r.get_u8();
  if (!r.ok()) return std::nullopt;
  if (r.remaining() == 1) flags = r.get_u8();
  if (r.remaining() != 0) return std::nullopt;
  if (transform > static_cast<std::uint8_t>(qry::Transform::kZScore) ||
      aggregate > static_cast<std::uint8_t>(qry::Aggregation::kP99))
    return std::nullopt;
  spec.transform = static_cast<qry::Transform>(transform);
  spec.aggregate = static_cast<qry::Aggregation>(aggregate);
  return spec;
}

inline std::vector<std::uint8_t> encode_query_reply(
    const qry::QueryResult& result, bool cache_hit,
    bool with_matched_labels = false,
    const QueryExplainBlock* explain = nullptr) {
  std::size_t bytes = 13;
  for (const auto& s : result.series)
    bytes += 22 + s.label.size() + 8 * s.series.size();
  if (with_matched_labels) {
    bytes += 4;
    for (const auto& name : result.matched) bytes += 2 + name.size();
  }
  std::vector<std::uint8_t> p;
  p.reserve(bytes);
  sto::put_u8(p, cache_hit ? 1 : 0);
  sto::put_u32(p, static_cast<std::uint32_t>(result.matched.size()));
  sto::put_u32(p, static_cast<std::uint32_t>(result.reconstructed.size()));
  sto::put_u32(p, static_cast<std::uint32_t>(result.series.size()));
  for (const auto& s : result.series) {
    sto::put_string(p, s.label);
    sto::put_f64(p, s.series.t0());
    sto::put_f64(p, s.series.dt());
    sto::put_u32(p, static_cast<std::uint32_t>(s.series.size()));
    sto::put_f64s(p, s.series.values());
  }
  if (with_matched_labels) {
    sto::put_u32(p, static_cast<std::uint32_t>(result.matched.size()));
    for (const auto& name : result.matched) sto::put_string(p, name);
  }
  if (explain != nullptr) {
    sto::put_u64(p, explain->total_ns);
    sto::put_u8(p, static_cast<std::uint8_t>(
                       std::min<std::size_t>(explain->stages.size(), 255)));
    std::size_t emitted = 0;
    for (const ExplainEntry& e : explain->stages) {
      if (emitted++ == 255) break;
      sto::put_string(p, e.stage);
      sto::put_u64(p, e.ns);
    }
  }
  return p;
}

/// Decode a QUERY OK payload. `flags` must be the flags the *request*
/// carried: the optional reply blocks are positional, so the decoder
/// needs to know which were asked for. Each block is tolerated absent
/// (an old server ignores flag bits it predates), strict when present.
inline std::optional<QueryReply> decode_query_reply(sto::ByteReader& r,
                                                    std::uint8_t flags) {
  QueryReply reply;
  reply.cache_hit = r.get_u8() != 0;
  reply.matched = r.get_u32();
  reply.reconstructed = r.get_u32();
  const std::uint32_t n_series = r.get_u32();
  if (!r.ok()) return std::nullopt;
  // The counts come off the wire: reserve no more than the remaining bytes
  // can hold (a series takes at least str16 + f64 + f64 + u32 = 22 bytes,
  // a matched label at least its 2-byte length).
  reply.series.reserve(std::min<std::size_t>(n_series, r.remaining() / 22));
  for (std::uint32_t i = 0; i < n_series; ++i) {
    qry::QuerySeries s;
    s.label = r.get_string();
    const double t0 = r.get_f64();
    const double dt = r.get_f64();
    std::vector<double> values = r.get_f64s(r.get_u32());
    // A grid step that is 0, negative or NaN is no grid: refuse the reply
    // rather than let RegularSeries throw a caller's bad-argument error.
    if (!r.ok() || !(dt > 0.0)) return std::nullopt;
    s.series = sig::RegularSeries(t0, dt, std::move(values));
    reply.series.push_back(std::move(s));
  }
  if (!r.ok()) return std::nullopt;
  if ((flags & kQueryWantMatched) != 0 && r.remaining() > 0) {
    const std::uint32_t n_matched = r.get_u32();
    if (!r.ok()) return std::nullopt;
    reply.matched_labels.reserve(
        std::min<std::size_t>(n_matched, r.remaining() / 2));
    for (std::uint32_t i = 0; i < n_matched; ++i) {
      reply.matched_labels.push_back(r.get_string());
      if (!r.ok()) return std::nullopt;
    }
  }
  if ((flags & kQueryWantExplain) != 0 && r.remaining() > 0) {
    QueryExplainBlock ex;
    ex.total_ns = r.get_u64();
    const std::uint8_t n_stages = r.get_u8();
    if (!r.ok()) return std::nullopt;
    ex.stages.reserve(n_stages);
    for (std::uint8_t i = 0; i < n_stages; ++i) {
      ExplainEntry e;
      e.stage = r.get_string();
      e.ns = r.get_u64();
      if (!r.ok()) return std::nullopt;
      ex.stages.push_back(std::move(e));
    }
    reply.explain = std::move(ex);
  }
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return reply;
}

inline std::vector<std::uint8_t> encode_checkpoint_reply(
    const CheckpointReply& reply) {
  std::vector<std::uint8_t> p;
  sto::put_u8(p, reply.persisted ? 1 : 0);
  sto::put_u64(p, reply.chunks);
  sto::put_u64(p, reply.bytes_written);
  return p;
}

inline std::optional<CheckpointReply> decode_checkpoint_reply(
    sto::ByteReader& r) {
  CheckpointReply reply;
  reply.persisted = r.get_u8() != 0;
  reply.chunks = r.get_u64();
  reply.bytes_written = r.get_u64();
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return reply;
}

inline std::vector<std::uint8_t> encode_handoff_export(
    const std::string& selector) {
  std::vector<std::uint8_t> p;
  p.reserve(3 + selector.size());
  sto::put_u8(p, static_cast<std::uint8_t>(HandoffDirection::kExport));
  sto::put_string(p, selector);
  return p;
}

inline std::vector<std::uint8_t> encode_handoff_import(
    std::span<const std::uint8_t> segment) {
  std::vector<std::uint8_t> p;
  sto::put_u8(p, static_cast<std::uint8_t>(HandoffDirection::kImport));
  sto::put_bytes(p, segment);
  return p;
}

inline std::vector<std::uint8_t> encode_handoff_export_reply(
    const HandoffExportReply& reply) {
  std::vector<std::uint8_t> p;
  sto::put_u32(p, reply.streams);
  sto::put_u64(p, reply.samples);
  sto::put_bytes(p, reply.segment);
  return p;
}

inline std::optional<HandoffExportReply> decode_handoff_export_reply(
    sto::ByteReader& r) {
  HandoffExportReply reply;
  reply.streams = r.get_u32();
  reply.samples = r.get_u64();
  if (!r.ok()) return std::nullopt;
  const auto rest = r.get_bytes(r.remaining());
  reply.segment.assign(rest.begin(), rest.end());
  return reply;
}

inline std::vector<std::uint8_t> encode_handoff_import_reply(
    const HandoffImportReply& reply) {
  std::vector<std::uint8_t> p;
  sto::put_u32(p, reply.streams);
  sto::put_u64(p, reply.samples);
  sto::put_u8(p, reply.persisted ? 1 : 0);
  return p;
}

inline std::optional<HandoffImportReply> decode_handoff_import_reply(
    sto::ByteReader& r) {
  HandoffImportReply reply;
  reply.streams = r.get_u32();
  reply.samples = r.get_u64();
  reply.persisted = r.get_u8() != 0;
  if (!r.ok() || r.remaining() != 0) return std::nullopt;
  return reply;
}

}  // namespace nyqmon::srv
