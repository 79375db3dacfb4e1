#include "server/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace nyqmon::srv {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

void set_io_timeout(int fd, std::uint32_t timeout_ms) {
  if (timeout_ms == 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// connect(2) bounded by timeout_ms: flip non-blocking, start the connect,
/// poll for writability, read SO_ERROR, flip back to blocking.
void connect_with_timeout(int fd, const sockaddr_in& addr,
                          std::uint32_t timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) throw_errno("fcntl");
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
  if (rc < 0) {
    if (errno != EINPROGRESS) throw_errno("connect");
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (ready < 0) throw_errno("poll");
    if (ready == 0) throw std::runtime_error("connect timed out");
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0)
      throw_errno("getsockopt");
    if (err != 0) {
      errno = err;
      throw_errno("connect");
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) throw_errno("fcntl");
}

}  // namespace

NyqmonClient::NyqmonClient(const std::string& host, std::uint16_t port,
                           ClientOptions options)
    : max_frame_bytes_(options.max_frame_bytes) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("bad host address: " + host);
  }
  try {
    if (options.connect_timeout_ms > 0) {
      connect_with_timeout(fd_, addr, options.connect_timeout_ms);
    } else if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) < 0) {
      throw_errno("connect");
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  set_io_timeout(fd_, options.io_timeout_ms);
}

NyqmonClient::~NyqmonClient() { close(); }

void NyqmonClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void NyqmonClient::send_raw(std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw std::runtime_error("send timed out");
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::vector<std::uint8_t> NyqmonClient::read_response_body() {
  auto read_exact = [&](std::uint8_t* dst, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
      const ssize_t r = ::recv(fd_, dst + got, n - got, 0);
      if (r == 0) throw std::runtime_error("server closed the connection");
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          throw std::runtime_error("recv timed out");
        throw_errno("recv");
      }
      got += static_cast<std::size_t>(r);
    }
  };
  std::uint8_t prefix[4];
  read_exact(prefix, 4);
  sto::ByteReader r(std::span<const std::uint8_t>(prefix, 4));
  const std::uint32_t body_len = r.get_u32();
  if (body_len == 0 || body_len > max_frame_bytes_)
    throw std::runtime_error("bad response frame length");
  std::vector<std::uint8_t> body(body_len);
  read_exact(body.data(), body.size());
  return body;
}

std::vector<std::uint8_t> NyqmonClient::request_raw(
    std::uint8_t verb, std::span<const std::uint8_t> payload) {
  send_raw(frame(verb, payload));
  return read_response_body();
}

std::vector<std::uint8_t> NyqmonClient::call_ok(
    Verb verb, std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> body =
      request_raw(static_cast<std::uint8_t>(verb), payload);
  sto::ByteReader reader(body);
  if (static_cast<Status>(reader.get_u8()) == Status::kOk)
    return std::vector<std::uint8_t>(body.begin() + 1, body.end());
  const std::string message = reader.get_string();
  throw ServerError(message.empty() ? "(no message)" : message,
                    decode_error_detail(reader));
}

std::string NyqmonClient::call_text(Verb verb,
                                    std::span<const std::uint8_t> payload) {
  const auto reply = call_ok(verb, payload);
  return std::string(reply.begin(), reply.end());
}

std::uint64_t NyqmonClient::ingest(const std::string& stream, double rate_hz,
                                   double t0, std::span<const double> values) {
  IngestRequest req;
  req.stream = stream;
  req.rate_hz = rate_hz;
  req.t0 = t0;
  req.values.assign(values.begin(), values.end());
  const auto payload = call_ok(Verb::kIngest, encode_ingest(req));
  sto::ByteReader reader(payload);
  const std::uint64_t total = reader.get_u64();
  if (!reader.ok()) throw std::runtime_error("malformed INGEST response");
  return total;
}

QueryReply NyqmonClient::query(const qry::QuerySpec& spec, bool want_matched,
                               bool want_explain) {
  std::uint8_t flags = 0;
  if (want_matched) flags |= kQueryWantMatched;
  if (want_explain) flags |= kQueryWantExplain;
  const auto payload = call_ok(Verb::kQuery, encode_query(spec, flags));
  sto::ByteReader reader(payload);
  auto reply = decode_query_reply(reader, flags);
  if (!reply.has_value()) throw std::runtime_error("malformed QUERY response");
  return std::move(*reply);
}

std::string NyqmonClient::stats_json() { return call_text(Verb::kStats); }

std::string NyqmonClient::metrics_text(bool fleet) {
  const std::uint8_t flags[] = {kMetricsFleet};
  return call_text(Verb::kMetrics,
                   std::span<const std::uint8_t>(flags, fleet ? 1u : 0u));
}

std::string NyqmonClient::trace_json(bool fleet) {
  const std::uint8_t flags[] = {kTraceFleet};
  return call_text(Verb::kTrace,
                   std::span<const std::uint8_t>(flags, fleet ? 1u : 0u));
}

std::string NyqmonClient::logs_text() { return call_text(Verb::kLogs); }

CheckpointReply NyqmonClient::checkpoint() {
  const auto payload = call_ok(Verb::kCheckpoint);
  sto::ByteReader reader(payload);
  auto reply = decode_checkpoint_reply(reader);
  if (!reply.has_value())
    throw std::runtime_error("malformed CHECKPOINT response");
  return *reply;
}

HandoffExportReply NyqmonClient::handoff_export(const std::string& selector) {
  const auto payload =
      call_ok(Verb::kHandoff, encode_handoff_export(selector));
  sto::ByteReader reader(payload);
  auto reply = decode_handoff_export_reply(reader);
  if (!reply.has_value())
    throw std::runtime_error("malformed HANDOFF response");
  return std::move(*reply);
}

HandoffImportReply NyqmonClient::handoff_import(
    std::span<const std::uint8_t> segment) {
  const auto payload = call_ok(Verb::kHandoff, encode_handoff_import(segment));
  sto::ByteReader reader(payload);
  auto reply = decode_handoff_import_reply(reader);
  if (!reply.has_value())
    throw std::runtime_error("malformed HANDOFF response");
  return *reply;
}

}  // namespace nyqmon::srv
