// Self-telemetry primitives: counters, gauges, and latency histograms.
//
// The system reproduces a paper about monitoring other systems' telemetry;
// this layer is the telemetry it keeps about itself. Three primitives, all
// designed so the hot path (engine windows, store appends, query serving)
// pays a few relaxed atomic operations and nothing else:
//
//   Counter    monotonic u64, striped over cache-line-padded cells indexed
//              by a thread-local slot — concurrent add() never contends on
//              one cache line; value() sums the cells.
//   Gauge      a single last-write-wins i64 (queue depths, backlogs).
//   Histogram  64 log2-width buckets of nanosecond values plus count/sum
//              and a CAS-maintained max. record() is lock-free and
//              wait-free except the (rare) max update; snapshots merge the
//              per-bucket totals written by every thread and interpolate
//              p50/p90/p99 inside the landing bucket.
//
// All metrics live in the process-wide Registry, created on first use and
// never removed — call sites cache the returned reference in a function-
// local static, so the registry mutex is paid once per site, not per event.
// Naming convention (enforced by tools/check_metrics_doc.py against the
// catalog in docs/OBSERVABILITY.md): `nyqmon_<layer>_<what>_<unit>` where
// the unit suffix is `_total` (counter), `_ns` (latency histogram), or
// `_bytes`/`_depth` (gauge).
//
// Counters and histograms are monotonic and racily-read by design: a
// value() or snapshot() taken while writers run is a consistent-enough
// sum (every completed add is eventually visible; a join or other
// happens-before edge makes it exact). reset() exists for tests and
// benches that need a clean slate and must only run while writers are
// quiesced.
//
// The layer is always compiled in. bench/obs_overhead.cc holds it to <3%
// overhead: one binary alternates windows that record what a pipeline
// window records with the same windows whose obs sites `if constexpr`
// elides.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nyqmon::obs {

/// Small dense process-wide thread id: assigned once per thread on first
/// use, monotonically increasing from 0. It stripes counter cells, and
/// thread_slot() + 1 is the `tid` of every trace event and log record the
/// thread writes, so one thread's spans and logs share one id.
std::size_t thread_slot();

/// Monotonic counter, striped to keep concurrent writers off each other's
/// cache lines. value() is a relaxed sum — exact once writers are joined.
class Counter {
 public:
  static constexpr std::size_t kCells = 16;  // power of two

  void add(std::uint64_t n = 1) noexcept {
    cells_[thread_slot() & (kCells - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kCells> cells_{};
};

/// Last-write-wins instantaneous value (queue depths, reply backlogs).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Point-in-time copy of a histogram, mergeable and queryable offline.
struct HistogramSnapshot {
  /// Bucket b (b >= 1) holds values v with bit_width(v) == b, i.e.
  /// v in [2^(b-1), 2^b - 1]; bucket 0 holds exactly v == 0.
  static constexpr std::size_t kBuckets = 65;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  /// Inclusive lower/upper value bounds of bucket b.
  static std::uint64_t bucket_lo(std::size_t b) noexcept {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }
  static std::uint64_t bucket_hi(std::size_t b) noexcept {
    return b == 0 ? 0 : (std::uint64_t{1} << (b - 1)) * 2 - 1;
  }

  /// q in [0, 1]. Finds the bucket holding the q-th ranked value and
  /// interpolates linearly inside it (clamped to the observed max for the
  /// top occupied bucket). Returns 0 for an empty histogram.
  double quantile(double q) const;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  HistogramSnapshot& merge(const HistogramSnapshot& other);
};

/// Log2-bucketed latency histogram (values in nanoseconds by convention).
/// record() is a handful of relaxed atomics; no locks anywhere.
class Histogram {
 public:
  void record(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t m = max_.load(std::memory_order_relaxed);
    while (v > m && !max_.compare_exchange_weak(m, v,
                                                std::memory_order_relaxed)) {
    }
  }

  static constexpr std::size_t bucket_of(std::uint64_t v) noexcept {
    return static_cast<std::size_t>(std::bit_width(v));  // 0 for v == 0
  }

  HistogramSnapshot snapshot() const;

  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kBuckets>
      buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// RAII nanosecond timer: records the scope's duration on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h) noexcept
      : h_(&h), t0_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    const auto dt = std::chrono::steady_clock::now() - t0_;
    h_->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
  }

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point t0_;
};

/// Process-wide metric registry. Lookup takes a mutex; instruments are
/// never removed, so the returned references stay valid for the process
/// lifetime and call sites cache them in function-local statics.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Snapshot of one histogram by name; an all-zero snapshot when the
  /// metric has never been registered (benches read through this).
  HistogramSnapshot histogram_snapshot(std::string_view name) const;
  /// Current value of one counter; 0 when never registered.
  std::uint64_t counter_value(std::string_view name) const;

  /// Prometheus text exposition of every registered metric, names sorted.
  /// Histograms render as summaries: quantile-labelled samples plus
  /// `_count`/`_sum`/`_max` series.
  std::string render_prometheus() const;

  /// Zero every instrument (registrations stay). Writers must be quiesced
  /// — tests and benches only.
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace nyqmon::obs

// --------------------------------------------------------------- macros ----
// The instrumentation idiom: each macro caches the Registry reference in a
// function-local static, so steady state is the primitive's few relaxed
// atomics.

#ifndef NYQMON_OBS_CAT
#define NYQMON_OBS_CAT2(a, b) a##b
#define NYQMON_OBS_CAT(a, b) NYQMON_OBS_CAT2(a, b)
#endif

/// Add `n` to the counter `name`.
#define NYQMON_OBS_COUNT(name, n)                              \
  do {                                                         \
    static ::nyqmon::obs::Counter& nyqmon_obs_counter_ =       \
        ::nyqmon::obs::Registry::instance().counter(name);     \
    nyqmon_obs_counter_.add(n);                                \
  } while (0)

/// Set the gauge `name` to `v`.
#define NYQMON_OBS_GAUGE_SET(name, v)                          \
  do {                                                         \
    static ::nyqmon::obs::Gauge& nyqmon_obs_gauge_ =           \
        ::nyqmon::obs::Registry::instance().gauge(name);       \
    nyqmon_obs_gauge_.set(static_cast<std::int64_t>(v));       \
  } while (0)

/// Record value `v` (nanoseconds by convention) into histogram `name`.
#define NYQMON_OBS_RECORD(name, v)                             \
  do {                                                         \
    static ::nyqmon::obs::Histogram& nyqmon_obs_histo_ =       \
        ::nyqmon::obs::Registry::instance().histogram(name);   \
    nyqmon_obs_histo_.record(static_cast<std::uint64_t>(v));   \
  } while (0)

/// Time the rest of the enclosing scope into histogram `name`.
#define NYQMON_OBS_TIMER(name)                                             \
  static ::nyqmon::obs::Histogram& NYQMON_OBS_CAT(nyqmon_obs_th_,          \
                                                  __LINE__) =              \
      ::nyqmon::obs::Registry::instance().histogram(name);                 \
  ::nyqmon::obs::ScopedTimer NYQMON_OBS_CAT(nyqmon_obs_timer_, __LINE__)(  \
      NYQMON_OBS_CAT(nyqmon_obs_th_, __LINE__))
