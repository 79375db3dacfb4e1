#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.h"

namespace nyqmon::obs {

namespace {

// FNV-1a over the node name: the stable per-node pid used by the chrome
// export, so the same node keeps the same process lane across drains and
// across merge_chrome_json() of independently exported parts.
std::uint32_t node_pid(const char* node) {
  if (node == nullptr) return 1;  // unnamed process lane
  std::uint32_t h = 2166136261u;
  for (const char* p = node; *p != '\0'; ++p) {
    h ^= static_cast<std::uint8_t>(*p);
    h *= 16777619u;
  }
  h &= 0x7fffffffu;
  return h == 0 ? 1 : h;
}

}  // namespace

ThreadTraceContext& thread_trace_context() noexcept {
  thread_local ThreadTraceContext ctx;
  return ctx;
}

const char* intern_node_name(const std::string& name) {
  if (name.empty()) return nullptr;
  // Process-lifetime table: entries are never erased, so the returned
  // c_str() stays valid for every TraceEvent that outlives its recording
  // scope. Fleet node sets are tiny; the leak is bounded and intentional.
  static std::mutex mu;
  static std::unordered_map<std::string, std::unique_ptr<std::string>>* table =
      new std::unordered_map<std::string, std::unique_ptr<std::string>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = table->find(name);
  if (it == table->end())
    it = table->emplace(name, std::make_unique<std::string>(name)).first;
  return it->second->c_str();
}

void set_thread_node(const std::string& node) {
  thread_trace_context().node = intern_node_name(node);
}

std::uint64_t next_span_id() noexcept {
  // A strided counter through the splitmix64 finalizer: unique within the
  // process by construction, and the per-process random seed makes
  // cross-node collisions in a stitched fleet trace a 2^-64 event.
  static std::atomic<std::uint64_t> counter{[] {
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    auto seed = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
    seed ^= reinterpret_cast<std::uintptr_t>(&counter);
    return seed;
  }()};
  std::uint64_t x =
      counter.fetch_add(0x9E3779B97F4A7C15ull, std::memory_order_relaxed);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

TraceRecorder::TraceRecorder(std::size_t ring_capacity)
    : epoch_(std::chrono::steady_clock::now()), ring_(ring_capacity) {}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

std::uint64_t TraceRecorder::now_ns() const {
  const auto dt = std::chrono::steady_clock::now() - epoch_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count());
}

void TraceRecorder::record(const char* name, const char* category,
                           std::uint64_t ts_ns, std::uint64_t dur_ns,
                           std::uint64_t trace_id, std::uint64_t span_id,
                           std::uint64_t parent_span_id, const char* node) {
  if (!enabled()) return;
  const auto tid = static_cast<std::uint32_t>(thread_slot() + 1);
  if (ring_.push(TraceEvent{name, category, ts_ns, dur_ns, tid, trace_id,
                            span_id, parent_span_id, node}))
    dropped_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> TraceRecorder::drain() { return ring_.drain(); }

std::string TraceRecorder::export_chrome_json() {
  const std::vector<TraceEvent> events = drain();
  std::string out = "{\"traceEvents\":[";
  out.reserve(64 + 192 * events.size());
  char line[512];
  bool first = true;
  // One process_name metadata event per distinct node, so chrome://tracing
  // labels each pid lane with the node's name.
  std::vector<const char*> named;
  for (const TraceEvent& e : events) {
    if (std::find(named.begin(), named.end(), e.node) != named.end())
      continue;
    named.push_back(e.node);
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", node_pid(e.node),
                  e.node != nullptr ? e.node : "nyqmon");
    out += line;
    first = false;
  }
  for (const TraceEvent& e : events) {
    // The format's native time unit is microseconds; keep ns precision in
    // the fraction. Distributed ids travel as hex-string args (JSON
    // numbers lose u64 precision).
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%u,\"tid\":%u,"
                  "\"args\":{\"trace_id\":\"%llx\",\"span_id\":\"%llx\","
                  "\"parent_span_id\":\"%llx\"}}",
                  first ? "" : ",", e.name, e.category,
                  static_cast<double>(e.ts_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3, node_pid(e.node),
                  e.tid, static_cast<unsigned long long>(e.trace_id),
                  static_cast<unsigned long long>(e.span_id),
                  static_cast<unsigned long long>(e.parent_span_id));
    out += line;
    first = false;
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

std::string merge_chrome_json(const std::vector<std::string>& parts) {
  // Textual splice of the exporter's fixed shell — no JSON parser needed
  // because export_chrome_json() is the only producer of these strings.
  static const char kPrefix[] = "{\"traceEvents\":[";
  static const char kSuffix[] = "],\"displayTimeUnit\":\"ms\"}";
  std::string out = kPrefix;
  bool first = true;
  for (const std::string& part : parts) {
    if (part.size() < sizeof(kPrefix) - 1 + sizeof(kSuffix) - 1) continue;
    if (part.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) continue;
    if (part.compare(part.size() - (sizeof(kSuffix) - 1), sizeof(kSuffix) - 1,
                     kSuffix) != 0)
      continue;
    const std::size_t begin = sizeof(kPrefix) - 1;
    const std::size_t len = part.size() - begin - (sizeof(kSuffix) - 1);
    if (len == 0) continue;
    if (!first) out += ',';
    out.append(part, begin, len);
    first = false;
  }
  out += kSuffix;
  return out;
}

}  // namespace nyqmon::obs
