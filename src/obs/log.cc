#include "obs/log.h"

#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nyqmon::obs {

const char* to_string(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "unknown";
}

LogRecorder::LogRecorder(std::size_t ring_capacity)
    : epoch_(std::chrono::steady_clock::now()), ring_(ring_capacity) {}

LogRecorder& LogRecorder::instance() {
  static LogRecorder recorder;
  return recorder;
}

std::uint64_t LogRecorder::now_ns() const {
  const auto dt = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
}

void LogRecorder::log(LogLevel level, const char* event, std::string detail) {
  recorded_.fetch_add(1, std::memory_order_relaxed);
  NYQMON_OBS_COUNT("nyqmon_obs_log_records_total", 1);
  LogRecord rec;
  rec.ts_ns = now_ns();
  rec.level = level;
  rec.event = event;
  rec.node = thread_trace_context().node;
  rec.tid = static_cast<std::uint32_t>(thread_slot() + 1);
  rec.detail = std::move(detail);
  if (ring_.push(std::move(rec))) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    NYQMON_OBS_COUNT("nyqmon_obs_log_dropped_total", 1);
  }
}

std::vector<LogRecord> LogRecorder::drain() { return ring_.drain(); }

std::string LogRecorder::export_text() {
  const std::vector<LogRecord> records = drain();
  char line[160];
  std::snprintf(line, sizeof(line),
                "nyqlog v1 records=%llu dropped=%llu\n",
                static_cast<unsigned long long>(records.size()),
                static_cast<unsigned long long>(dropped()));
  std::string out = line;
  out.reserve(out.size() + 128 * records.size());
  for (const LogRecord& r : records) {
    std::snprintf(line, sizeof(line), "ts_ns=%llu level=%s event=%s node=%s "
                  "tid=%u",
                  static_cast<unsigned long long>(r.ts_ns),
                  to_string(r.level), r.event != nullptr ? r.event : "?",
                  r.node != nullptr ? r.node : "-", r.tid);
    out += line;
    if (!r.detail.empty()) {
      out += ' ';
      out += r.detail;
    }
    out += '\n';
  }
  return out;
}

}  // namespace nyqmon::obs
