// Bounded in-process trace capture with a chrome://tracing exporter and
// distributed-tracing context propagation.
//
// A TraceRecorder keeps one EventRing (obs/ring.h) of TraceEvents shared
// by every writing thread: 65536 events by default, about 4.7 MB at most,
// however many threads ever recorded. Writers append complete spans ('X'
// phase in the Trace Event Format): the ScopedSpan RAII helper timestamps
// construction and records name/category/start/duration on destruction.
// When the ring is full the oldest event is overwritten and a drop is
// counted — tracing is a bounded window onto recent activity, never a
// memory hazard on long runs. Each event's tid is the writer's
// thread_slot() + 1 (obs/metrics.h), the same id its log records carry.
//
// Distributed tracing: every thread carries a ThreadTraceContext
// {trace_id, span_id, node}. ScopedSpan draws a fresh span id, parents
// itself under the thread's current span, and installs itself as the
// current span for its scope — so nested spans form a tree, and spans on
// different nodes that adopted the same wire-propagated trace_id stitch
// into one timeline. NyqmondServer dispatch adopts the TraceContext
// carried as optional trailing bytes on request frames (see
// src/server/protocol.h) via ScopedThreadTraceContext; server event-loop
// threads tag their spans with the node's name via set_thread_node().
// Node names are interned (never freed) so TraceEvent stays a POD of
// pointers.
//
// Capture is off by default; set_enabled(true) arms it (nyqmond does this
// at startup). Disarmed spans cost one relaxed atomic load; an armed span
// takes the ring's mutex once.
//
// drain() empties the ring in one atomic step and returns its events in
// timestamp order. Draining is *consuming*: two concurrent `nyqmon_ctl
// trace` calls each get a complete, disjoint batch.
// export_chrome_json() wraps a drain in the JSON object format
// ({"traceEvents":[...]}) that chrome://tracing and Perfetto load
// directly; events carry their trace/span/parent ids as args and are
// grouped into per-node pids. merge_chrome_json() splices several such
// exports (one per fleet node) into a single timeline.
//
// Event names/categories are `const char*` by design: recording does not
// allocate, so callers must pass string literals (or otherwise
// recorder-outliving storage, e.g. intern_node_name()).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/ring.h"

namespace nyqmon::obs {

struct TraceEvent {
  const char* name = nullptr;      ///< literal; span label
  const char* category = nullptr;  ///< literal; layer ("engine", "storage", …)
  std::uint64_t ts_ns = 0;         ///< span start, recorder-epoch-relative
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< writer's thread_slot() + 1
  std::uint64_t trace_id = 0;        ///< 0 = not part of a distributed trace
  std::uint64_t span_id = 0;         ///< 0 = recorded before span ids existed
  std::uint64_t parent_span_id = 0;  ///< 0 = root span of its trace/thread
  const char* node = nullptr;  ///< interned node name; nullptr = unnamed
};

/// Per-thread distributed-tracing state. `span_id` is the innermost live
/// ScopedSpan on this thread (what a new child parents under); `node` tags
/// every span the thread records.
struct ThreadTraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  const char* node = nullptr;
};

/// The calling thread's mutable context (thread_local storage).
ThreadTraceContext& thread_trace_context() noexcept;

/// Copy `name` into the process-lifetime intern table and return the
/// stable pointer (empty string interns to nullptr). Idempotent per name.
const char* intern_node_name(const std::string& name);

/// Tag every span subsequently recorded by the calling thread with `node`
/// (interned). Empty clears the tag.
void set_thread_node(const std::string& node);

/// Process-unique, never-zero span/trace id. Mixed (splitmix64) so ids
/// drawn on different nodes of a fleet collide only by 2^-64 chance.
std::uint64_t next_span_id() noexcept;

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 65536;

  explicit TraceRecorder(std::size_t ring_capacity = kDefaultRingCapacity);

  /// The process-wide recorder every NYQMON_TRACE_SPAN site writes to.
  static TraceRecorder& instance();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since this recorder's epoch (its construction).
  std::uint64_t now_ns() const;

  /// Append one complete span to the ring (overwriting the oldest event,
  /// counted as a drop, when full). No-op when disabled.
  /// The trailing id/node fields default to "not distributed".
  void record(const char* name, const char* category, std::uint64_t ts_ns,
              std::uint64_t dur_ns, std::uint64_t trace_id = 0,
              std::uint64_t span_id = 0, std::uint64_t parent_span_id = 0,
              const char* node = nullptr);

  /// Move every buffered event out (the ring is empty afterwards), in
  /// start-timestamp order. Consuming and atomic: concurrent drains each
  /// return a complete disjoint batch. Safe concurrently with writers:
  /// events recorded during the drain land in the next one.
  std::vector<TraceEvent> drain();

  /// Events overwritten before any drain could see them.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// drain() + Trace Event Format (JSON object form). Loads directly in
  /// chrome://tracing / Perfetto. Events are grouped into one pid per
  /// node name (process_name metadata emitted per pid); distributed ids
  /// ride along as hex-string args {trace_id, span_id, parent_span_id}.
  std::string export_chrome_json();

 private:
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> dropped_{0};
  EventRing<TraceEvent> ring_;
};

/// Splice several export_chrome_json() outputs (e.g. one per fleet node)
/// into one timeline. Inputs that don't match the exporter's fixed shell
/// are skipped. Per-node pids are stable name hashes, so spans keep their
/// process grouping across the merge.
std::string merge_chrome_json(const std::vector<std::string>& parts);

/// RAII span against TraceRecorder::instance(). Costs one atomic load when
/// tracing is disabled. `name`/`category` must be string literals. While
/// alive, the span is the calling thread's current span (children parent
/// under it); the previous current span is restored on destruction.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category) noexcept {
    TraceRecorder& rec = TraceRecorder::instance();
    if (rec.enabled()) {
      name_ = name;
      category_ = category;
      ThreadTraceContext& ctx = thread_trace_context();
      trace_id_ = ctx.trace_id;
      parent_span_id_ = ctx.span_id;
      span_id_ = next_span_id();
      ctx.span_id = span_id_;
      t0_ns_ = rec.now_ns();
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (name_ == nullptr) return;
    TraceRecorder& rec = TraceRecorder::instance();
    ThreadTraceContext& ctx = thread_trace_context();
    const std::uint64_t t1 = rec.now_ns();
    rec.record(name_, category_, t0_ns_, t1 - t0_ns_, trace_id_, span_id_,
               parent_span_id_, ctx.node);
    // Restore the enclosing span as current (even if an intervening
    // adoption changed trace_id, the span stack must unwind).
    ctx.span_id = parent_span_id_;
  }

 private:
  const char* name_ = nullptr;  ///< nullptr = tracing was off at entry
  const char* category_ = nullptr;
  std::uint64_t t0_ns_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_span_id_ = 0;
};

/// RAII adoption of a wire-propagated trace context: installs
/// {trace_id, parent_span_id} as the calling thread's current context so
/// spans opened inside the scope join the remote caller's trace, and
/// restores the previous context on destruction. A zero trace_id adopts
/// nothing (no-op), so callers can pass an absent wire context through.
class ScopedThreadTraceContext {
 public:
  ScopedThreadTraceContext(std::uint64_t trace_id,
                           std::uint64_t parent_span_id) noexcept {
    if (trace_id == 0) return;
    ThreadTraceContext& ctx = thread_trace_context();
    saved_trace_id_ = ctx.trace_id;
    saved_span_id_ = ctx.span_id;
    ctx.trace_id = trace_id;
    ctx.span_id = parent_span_id;
    adopted_ = true;
  }
  ScopedThreadTraceContext(const ScopedThreadTraceContext&) = delete;
  ScopedThreadTraceContext& operator=(const ScopedThreadTraceContext&) =
      delete;
  ~ScopedThreadTraceContext() {
    if (!adopted_) return;
    ThreadTraceContext& ctx = thread_trace_context();
    ctx.trace_id = saved_trace_id_;
    ctx.span_id = saved_span_id_;
  }

 private:
  bool adopted_ = false;
  std::uint64_t saved_trace_id_ = 0;
  std::uint64_t saved_span_id_ = 0;
};

}  // namespace nyqmon::obs

#ifndef NYQMON_OBS_CAT
#define NYQMON_OBS_CAT2(a, b) a##b
#define NYQMON_OBS_CAT(a, b) NYQMON_OBS_CAT2(a, b)
#endif

/// Trace the rest of the enclosing scope as one complete event.
#define NYQMON_TRACE_SPAN(name, category)                      \
  ::nyqmon::obs::ScopedSpan NYQMON_OBS_CAT(nyqmon_obs_span_,   \
                                           __LINE__) {         \
    name, category                                             \
  }
