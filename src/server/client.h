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
// One method per verb, each over call_ok(): the method encodes its own
// payload — flag byte included (protocol.h owns where it goes) — sends it,
// and decodes the OK reply. call_ok() is public for callers that already
// hold an encoded payload (the cluster client's traced ingest).
//
// The raw escape hatches (send_raw / request_raw) exist for protocol
// tests: truncated frames, oversized length prefixes, unknown verbs.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "query/spec.h"
#include "server/protocol.h"

namespace nyqmon::srv {

/// The server answered ERR. `details` is non-empty only for ERR-with-detail
/// payloads (the router's per-backend failure report, a HANDOFF import's
/// conflict list).
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

class NyqmonClient {
 public:
  /// Connect to host:port (numeric IPv4 host). Throws on failure (a
  /// connect timeout throws std::runtime_error mentioning "timed out").
  NyqmonClient(const std::string& host, std::uint16_t port,
               ClientOptions options = {});

  ~NyqmonClient();

  NyqmonClient(const NyqmonClient&) = delete;
  NyqmonClient& operator=(const NyqmonClient&) = delete;

  /// Send one request and return its OK payload. Throws ServerError when
  /// the server answers ERR, std::runtime_error on transport failure.
  std::vector<std::uint8_t> call_ok(Verb verb,
                                    std::span<const std::uint8_t> payload = {});

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

  /// The server's JSON counter snapshot, verbatim.
  std::string stats_json();

  /// The server process's metric registry as Prometheus text exposition
  /// (catalog: docs/OBSERVABILITY.md), verbatim. With `fleet`, a router
  /// scatter-gathers every backend's exposition and returns them as
  /// `# == node <name> ==` sections (a plain nyqmond ignores the flag and
  /// answers its own exposition).
  std::string metrics_text(bool fleet = false);

  /// Drain the server's trace ring as chrome://tracing JSON, verbatim.
  /// Consuming: consecutive calls return disjoint windows of activity.
  /// With `fleet`, a router drains every backend too and stitches all the
  /// timelines (its own included) into one JSON document.
  std::string trace_json(bool fleet = false);

  /// Drain the server's structured log ring as `nyqlog v1` text
  /// (src/obs/log.h). Consuming, like trace_json().
  std::string logs_text();

  CheckpointReply checkpoint();

  /// Snapshot every stream matching `selector` into a wire segment image
  /// (non-destructive; the server keeps serving its copy).
  HandoffExportReply handoff_export(const std::string& selector);

  /// Restore a wire segment image into the server. The server refuses
  /// (ServerError with per-stream details) when any stream already exists;
  /// the details list at most 255 streams, and the message states the
  /// total.
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
  /// call_ok() for the verbs whose OK payload is text, returned verbatim.
  std::string call_text(Verb verb, std::span<const std::uint8_t> payload = {});

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
