// Shared plumbing for the perfbench workloads: options, timing,
// sample distributions, obs-registry deltas, the benchmark's own span
// tracer, and the result record every workload fills.
//
// Everything here measures the program from outside: spans wrap calls into
// the library's public API, and per-layer counters are deltas of the obs
// registry series the library already emits. Nothing here instruments
// src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

namespace obs = nyqmon::obs;
using SteadyClock = std::chrono::steady_clock;

inline double seconds_between(SteadyClock::time_point a,
                              SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms_between(SteadyClock::time_point a,
                         SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the self-test: same code paths, a fraction of the work.
  bool tiny = false;
  /// Scratch directory for durable tiers and trace files (inside the
  /// checkout the benchmark runs from).
  std::string work_dir = ".bench_work";
};

/// Latency samples, one per timed operation (a query, a poll beat).
class Distribution {
 public:
  void add(double value) { samples_.push_back(value); }
  void merge(const Distribution& other);

  std::size_t count() const { return samples_.size(); }

  /// Samples ranked beyond the q-quantile.
  std::size_t beyond(double q) const;

  /// The q-quantile (nearest rank), or nullopt when fewer than ten samples
  /// lie beyond it: the benchmark never reports an unsupported tail.
  std::optional<double> quantile(double q) const;

  /// quantile(), or a std::runtime_error naming `what` when the sample
  /// count cannot support q.
  double require(double q, const std::string& what) const;

 private:
  std::vector<double> samples_;
};

/// "n=<count> <what>, <k> beyond p<q>": the samples behind a quantile.
std::string sample_note(const Distribution& d, double q,
                        const std::string& what);

/// Median of a plain vector (0 when empty).
double median(std::vector<double> values);

/// Deltas of obs-registry series over one or more measured intervals:
/// counters, and histograms bucket-wise (so quantiles keep the registry's
/// log2 resolution). Each begin()/end() pair adds one interval.
class RegistryWindow {
 public:
  void begin();
  void end();

  std::uint64_t counter(const std::string& name) const;
  obs::HistogramSnapshot histogram(const std::string& name) const;
  double histogram_sum_ms(const std::string& name) const;
  /// Mean recorded value in ms (0 when nothing was recorded).
  double histogram_mean_ms(const std::string& name) const;
  double histogram_quantile_ms(const std::string& name, double q) const;

 private:
  std::map<std::string, std::uint64_t> counters_at_begin_, counters_;
  std::map<std::string, obs::HistogramSnapshot> hist_at_begin_, hists_;
};

/// The benchmark's own span recorder: spans are kept in memory and written
/// once, at the end, as chrome://tracing JSON. While inactive, a span costs
/// one relaxed load.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    const char* layer = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::uint32_t thread = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const char* layer,
          std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
    std::uint64_t saved_parent_ = 0;
    std::uint64_t saved_request_ = 0;
  };

  /// Whether spans are recorded right now. A traced run alternates active
  /// and inactive slices so trace.overhead_frac compares like with like.
  void set_active(bool on) { active_.store(on, std::memory_order_relaxed); }
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// A span over the enclosing scope. `request` tags the spans of one
  /// request; 0 inherits the enclosing span's request.
  [[nodiscard]] Scope span(const char* name, const char* layer,
                           std::uint64_t request = 0) {
    return Scope(active() ? this : nullptr, name, layer, request);
  }

  std::uint64_t next_request_id() { return next_request_.fetch_add(1) + 1; }

  std::size_t size() const;

  /// Self time per layer in ms: each span's duration minus the time its
  /// child spans cover.
  std::map<std::string, double> self_ms_by_layer() const;

  void write_chrome_json(const std::string& path) const;

 private:
  void record(const Span& span);

  std::atomic<bool> active_{false};
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> next_request_{0};
  const SteadyClock::time_point epoch_ = SteadyClock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Cuts a measured window into half-second slices. Load threads tag each
/// operation with the slice it started in, so a run can set aside the
/// slices a disturbance of the host slowed (middle_half) and, when traced,
/// compare traced with untraced slices: the tracer flips every slice.
class Slicer {
 public:
  Slicer(Tracer& tracer, bool traced) : tracer_(tracer), traced_(traced) {}

  /// Sleep until `end`, opening a new slice every half second. Afterwards
  /// current() is one past the last slice.
  void run_until(SteadyClock::time_point end);

  /// The slice open now; load threads read it once per operation.
  std::size_t current() const {
    return current_.load(std::memory_order_relaxed);
  }

  /// How long each slice lasted.
  const std::vector<double>& seconds() const { return seconds_; }

  /// Whether spans were recorded during `slice`.
  bool traced(std::size_t slice) const { return traced_ && slice % 2 == 0; }

 private:
  Tracer& tracer_;
  bool traced_;
  std::atomic<std::size_t> current_{0};
  std::vector<double> seconds_;
};

/// Indices of the middle half of `values`, those ranked between the
/// quartiles: the rounds or slices a transient disturbance of the host
/// neither slowed nor sped up. All of them when there are fewer than four.
std::vector<std::size_t> middle_half(const std::vector<double>& values);

/// One named figure with its unit; `note` carries report context such as
/// sample counts.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;
};

/// What a workload hands back to main(). Load threads fill their own
/// Result and absorb() it into the workload's after joining.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for the report
  /// The cross-workload end-to-end set BENCHMARK.json gates.
  std::vector<Metric> end_to_end;
  /// The workload's end-to-end figures under their own names.
  std::vector<Metric> workload;
  /// Per-layer figures; a layer the workload leaves idle is absent here and
  /// reported as 0.
  std::map<std::string, double> layers;
  /// Digest of the generated inputs (the self-test checks seeds move it).
  std::uint64_t input_digest = 0;

  void fail(const std::string& what);
  /// Add another result's check counts and failure descriptions.
  void absorb(const Result& other);
};

/// Run `fn`, counting an escaping exception as one failed operation (load
/// threads must not let one escape).
template <typename Fn>
void guarded(Result& checks, const char* what, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    ++checks.attempted;
    checks.fail(std::string(what) + ": " + e.what());
  }
}

/// The per-layer metrics every workload reads the same way from the obs
/// registry; `kops` is the workload's operation count / 1000.
void add_registry_layers(const RegistryWindow& registry, double kops,
                         Result& result);

/// Process CPU seconds (user + system) so far.
double process_cpu_seconds();

unsigned online_cores();

/// One step of a 64-bit FNV-1a fold (input digests).
inline std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}
inline constexpr std::uint64_t kFoldSeed = 1469598103934665603ull;

/// Bitwise equality of two double vectors (NaN-safe).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

/// Every per-layer metric with its unit, in report order. Traced runs of
/// every workload emit all of them.
const std::vector<std::pair<std::string, std::string>>& layer_catalog();

/// Remove and recreate a scratch directory.
void fresh_dir(const std::string& path);

Result run_fleet_ingest(const Options& options, Tracer& tracer);
Result run_router_fanout(const Options& options, Tracer& tracer);

}  // namespace perfbench
