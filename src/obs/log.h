// Bounded structured logging: leveled key=value records in one EventRing
// (obs/ring.h) with drop accounting — the tracer's ring applied to the
// warn/error paths that previously only bumped a counter.
//
// Every record carries a literal *event name* (dotted, e.g.
// "server.slow_client_dropped" — the greppable identity, catalogued in
// docs/OBSERVABILITY.md and cross-checked by tools/check_metrics_doc.py),
// a level, the recording thread's node tag and tid (both shared with the
// tracer: tid is thread_slot() + 1), and a free-form `key=value` detail
// string. The ring holds 8192 records by default across all threads; it
// overwrites the oldest on overflow and counts the drop, so logging is
// bounded on long runs and on log storms alike.
//
// The LogRecorder is always armed: the call sites are rare failure paths
// (a slow client dropped, a WAL fsync failure, a backend deadline miss),
// so the small per-record cost (one mutex + one string move) is
// irrelevant, and there is no arming step to forget before the one crash
// you needed logs for. drain() is consuming and atomic, exactly like the
// tracer's; the LOGS(8) wire verb serves export_text().
//
// Call sites use the NYQMON_LOG_{INFO,WARN,ERROR} macros.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/ring.h"

namespace nyqmon::obs {

enum class LogLevel : std::uint8_t { kInfo = 0, kWarn = 1, kError = 2 };

const char* to_string(LogLevel level) noexcept;

struct LogRecord {
  std::uint64_t ts_ns = 0;     ///< recorder-epoch-relative (steady clock)
  LogLevel level = LogLevel::kInfo;
  const char* event = nullptr;  ///< literal dotted event name
  const char* node = nullptr;   ///< interned node tag; nullptr = unnamed
  std::uint32_t tid = 0;        ///< writer's thread_slot() + 1
  std::string detail;           ///< free-form `key=value ...` text
};

class LogRecorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 8192;

  explicit LogRecorder(std::size_t ring_capacity = kDefaultRingCapacity);

  /// The process-wide recorder every NYQMON_LOG_* site writes to.
  static LogRecorder& instance();

  /// Nanoseconds since this recorder's epoch (its construction).
  std::uint64_t now_ns() const;

  /// Append one record to the ring (overwriting the oldest, counted as a
  /// drop, when full). `event` must be a literal.
  void log(LogLevel level, const char* event, std::string detail);

  /// Move every buffered record out (the ring is empty afterwards), in
  /// timestamp order. Consuming and atomic like TraceRecorder::drain.
  std::vector<LogRecord> drain();

  /// Records overwritten before any drain could see them (cumulative).
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Records ever logged (cumulative).
  std::uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// drain() rendered as the `nyqlog v1` text form (one record per line,
  /// `key=value` fields) served by the LOGS(8) verb; see
  /// docs/OBSERVABILITY.md for the schema.
  std::string export_text();

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> recorded_{0};
  EventRing<LogRecord> ring_;
};

}  // namespace nyqmon::obs

#define NYQMON_LOG_INFO(event, detail)                 \
  ::nyqmon::obs::LogRecorder::instance().log(          \
      ::nyqmon::obs::LogLevel::kInfo, event, (detail))
#define NYQMON_LOG_WARN(event, detail)                 \
  ::nyqmon::obs::LogRecorder::instance().log(          \
      ::nyqmon::obs::LogLevel::kWarn, event, (detail))
#define NYQMON_LOG_ERROR(event, detail)                \
  ::nyqmon::obs::LogRecorder::instance().log(          \
      ::nyqmon::obs::LogLevel::kError, event, (detail))
