// NyqmonClient — blocking client for the nyqmond wire protocol.
//
// One instance owns one TCP connection and issues one command at a time
// (the protocol is strictly request/response per connection; concurrency
// comes from multiple clients). Command methods throw ServerError when the
// server answers ERR — the server's message (and any per-node detail from
// a router's partial-failure report) is carried through — and
// std::runtime_error when the transport fails.
//
// ClientOptions adds bounded waiting: a connect timeout (non-blocking
// connect + poll) and an I/O timeout on every send/recv (SO_SNDTIMEO /
// SO_RCVTIMEO). Both default to 0 = block forever, the pre-cluster
// behavior. retry_with_backoff() wraps any callable in the standard
// reconnect loop: transport errors retry with exponential backoff,
// ServerError (the server *answered*) never retries.
//
// The typed surface is Request/Response + call()/call_ok(): a Request
// names the verb, carries the encoded payload, and optionally the
// protocol's trailing flag byte and a trace label (prefixed onto
// transport-error messages so fan-out callers can tell which request
// died). The pre-existing per-verb methods (ingest/query/stats_json/…)
// are kept as thin wrappers over call_ok() for one release while callers
// migrate; new code should prefer query(QueryBuilder) and, for verbs this
// client predates, call()/call_ok() directly. Not marked [[deprecated]]
// yet — the wrappers still back most in-tree call sites — but treat them
// as frozen: new verbs get a Request, not a new wrapper.
//
// The raw escape hatches (send_raw / request_raw) exist for protocol
// tests: truncated frames, oversized length prefixes, unknown verbs.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "query/builder.h"
#include "query/spec.h"
#include "server/protocol.h"

namespace nyqmon::srv {

/// The server answered ERR. `details` is non-empty only for ERR-with-detail
/// payloads (the router's per-backend failure report).
class ServerError : public std::runtime_error {
 public:
  ServerError(const std::string& message, std::vector<ErrorDetail> details)
      : std::runtime_error("server error: " + message),
        details_(std::move(details)) {}

  const std::vector<ErrorDetail>& details() const { return details_; }

 private:
  std::vector<ErrorDetail> details_;
};

struct ClientOptions {
  /// Bound on establishing the TCP connection. 0 = block forever.
  std::uint32_t connect_timeout_ms = 0;
  /// Bound on each send/recv syscall of a request. 0 = block forever.
  std::uint32_t io_timeout_ms = 0;
  /// Must match the server's frame cap when that was raised from the
  /// default — response frames beyond it are rejected.
  std::size_t max_frame_bytes = kMaxFrameBytes;
};

/// One typed wire request: the verb, its encoded payload, and (when set)
/// the protocol's optional trailing flag byte — QUERY's kQueryWant* bits,
/// METRICS/TRACE's fleet bit. `trace` is a client-side label only (never
/// sent): it prefixes transport-error messages, so a caller fanning one
/// logical operation across many requests can tell which one failed.
struct Request {
  Verb verb = Verb::kStats;
  std::span<const std::uint8_t> payload{};
  std::optional<std::uint8_t> flags{};
  std::string trace{};
};

/// The decoded response frame: the status byte plus everything after it.
/// For ERR frames the server's message and per-node details are decoded
/// into error_message / error_details and `payload` is empty.
struct Response {
  Status status = Status::kOk;
  std::vector<std::uint8_t> payload;
  std::string error_message;
  std::vector<ErrorDetail> error_details;

  bool ok() const { return status == Status::kOk; }
};

class NyqmonClient {
 public:
  /// Connect to host:port (numeric IPv4 host). Throws on failure (a
  /// connect timeout throws std::runtime_error mentioning "timed out").
  NyqmonClient(const std::string& host, std::uint16_t port,
               ClientOptions options);

  /// Untimed connect (back-compat convenience).
  NyqmonClient(const std::string& host, std::uint16_t port,
               std::size_t max_frame_bytes = kMaxFrameBytes)
      : NyqmonClient(host, port,
                     ClientOptions{0, 0, max_frame_bytes}) {}

  ~NyqmonClient();

  NyqmonClient(const NyqmonClient&) = delete;
  NyqmonClient& operator=(const NyqmonClient&) = delete;

  /// Issue one typed request and return the decoded response, OK or ERR
  /// alike. Throws std::runtime_error only on transport failure (with
  /// req.trace prefixed onto the message when set) — inspect
  /// Response::ok() for the server's verdict.
  Response call(const Request& req);

  /// call() + ERR unwrapping: returns the OK payload, throws ServerError
  /// when the server answered ERR. Every per-verb method below routes
  /// through here.
  std::vector<std::uint8_t> call_ok(const Request& req);

  /// Append a batch to `stream`, creating it on first ingest with the
  /// given collection rate and start time. Returns the stream's total
  /// ingested sample count after the append.
  std::uint64_t ingest(const std::string& stream, double rate_hz, double t0,
                       std::span<const double> values);

  /// `want_matched` sets kQueryWantMatched so the reply carries the matched
  /// stream IDs (QueryReply::matched_labels) — the cluster merge needs them.
  /// `want_explain` sets kQueryWantExplain so the reply carries the
  /// per-stage latency breakdown (QueryReply::explain); an old server
  /// ignores the flag and the field stays empty.
  QueryReply query(const qry::QuerySpec& spec, bool want_matched = false,
                   bool want_explain = false);

  /// Build-and-query in one go: validates the builder's spec and carries
  /// its want_matched/want_explain options as the request flags.
  QueryReply query(const qry::QueryBuilder& builder) {
    return query(builder.build(), builder.matched_wanted(),
                 builder.explain_wanted());
  }

  /// The server's JSON counter snapshot, verbatim.
  std::string stats_json();

  /// The server process's metric registry as Prometheus text exposition
  /// (catalog: docs/OBSERVABILITY.md), verbatim. With `fleet`, a router
  /// scatter-gathers every backend's exposition and returns them as
  /// `# == node <name> ==` sections (a plain nyqmond ignores the flag and
  /// answers its own exposition).
  std::string metrics_text(bool fleet = false);

  /// Drain the server's trace rings as chrome://tracing JSON, verbatim.
  /// Consuming: consecutive calls return disjoint windows of activity.
  /// With `fleet`, a router drains every backend too and stitches all the
  /// timelines (its own included) into one JSON document.
  std::string trace_json(bool fleet = false);

  /// Drain the server's structured log rings as `nyqlog v1` text
  /// (src/obs/log.h). Consuming, like trace_json().
  std::string logs_text();

  CheckpointReply checkpoint();

  /// Snapshot every stream matching `selector` into a wire segment image
  /// (non-destructive; the server keeps serving its copy).
  HandoffExportReply handoff_export(const std::string& selector);

  /// Restore a wire segment image into the server. The server refuses
  /// (ServerError with per-stream details) when any stream already exists.
  HandoffImportReply handoff_import(std::span<const std::uint8_t> segment);

  /// Close the socket early (tests: disconnect mid-exchange). Idempotent.
  void close();

  /// The connection's fd, -1 after close() (cluster fan-out polls it).
  int fd() const { return fd_; }

  // ---- protocol-test escape hatches ----

  /// Send raw bytes as-is (no framing).
  void send_raw(std::span<const std::uint8_t> bytes);

  /// Send one framed request and return the raw response body
  /// (status byte + payload). Throws only on transport failure.
  std::vector<std::uint8_t> request_raw(std::uint8_t verb,
                                        std::span<const std::uint8_t> payload);

 private:
  std::vector<std::uint8_t> read_response_body();

  int fd_ = -1;
  std::size_t max_frame_bytes_;
};

/// Reconnect/retry schedule for retry_with_backoff.
struct RetryPolicy {
  std::size_t attempts = 3;
  std::chrono::milliseconds initial_backoff{50};
  double multiplier = 2.0;
};

/// Run `fn` up to policy.attempts times, sleeping an exponentially growing
/// backoff between failures. Retries on transport-level failures
/// (std::runtime_error) only: a ServerError means the request *reached* the
/// server and was refused — retrying cannot change the answer — so it
/// propagates immediately, as does the last transport error.
template <typename Fn>
auto retry_with_backoff(const RetryPolicy& policy, Fn&& fn)
    -> decltype(fn()) {
  auto backoff = policy.initial_backoff;
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const ServerError&) {
      throw;
    } catch (const std::runtime_error&) {
      if (attempt >= policy.attempts || policy.attempts == 0) throw;
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::chrono::milliseconds(static_cast<std::int64_t>(
        static_cast<double>(backoff.count()) * policy.multiplier));
  }
}

}  // namespace nyqmon::srv
