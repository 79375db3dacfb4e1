#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

// The registry series the per-layer metrics read (catalog:
// docs/OBSERVABILITY.md).
const char* const kCounters[] = {
    "nyqmon_query_cache_hits_total",
    "nyqmon_query_cache_misses_total",
    "nyqmon_query_streams_reconstructed_total",
    "nyqmon_router_backend_errors_total",
    "nyqmon_server_backpressure_stalls_total",
    "nyqmon_storage_compactions_total",
    "nyqmon_store_generation_bumps_total",
    "nyqmon_store_lock_acquisitions_total",
    "nyqmon_store_lock_contended_total",
};

const char* const kHistograms[] = {
    "nyqmon_engine_stage_audit_ns",
    "nyqmon_engine_stage_fft_ns",
    "nyqmon_engine_stage_reconstruct_ns",
    "nyqmon_engine_stage_sample_ns",
    "nyqmon_query_latency_ns",
    "nyqmon_reactor_quiesce_wait_ns",
    "nyqmon_router_fanout_latency_ns",
    "nyqmon_server_ingest_latency_ns",
    "nyqmon_server_query_latency_ns",
    "nyqmon_storage_compact_ns",
    "nyqmon_store_lock_wait_ns",
    "nyqmon_wal_fsync_ns",
};

// The innermost open span on this thread, and its request.
thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_request = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = ++next;
  return index;
}

/// Nearest rank (1-based) of the q-quantile among n samples.
std::size_t nearest_rank(double q, std::size_t n) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
}

}  // namespace

// ------------------------------------------------------------ Distribution --

void Distribution::merge(const Distribution& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

std::size_t Distribution::beyond(double q) const {
  if (samples_.empty()) return 0;
  return samples_.size() - nearest_rank(q, samples_.size());
}

std::optional<double> Distribution::quantile(double q) const {
  if (beyond(q) < 10) return std::nullopt;
  auto sorted = samples_;
  const auto nth = sorted.begin() + static_cast<std::ptrdiff_t>(
                                        nearest_rank(q, sorted.size()) - 1);
  std::nth_element(sorted.begin(), nth, sorted.end());
  return *nth;
}

double Distribution::require(double q, const std::string& what) const {
  const std::optional<double> value = quantile(q);
  if (!value.has_value()) {
    char why[160];
    std::snprintf(why, sizeof(why),
                  ": %zu samples cannot support the %g quantile (ten must "
                  "lie beyond it)",
                  samples_.size(), q);
    throw std::runtime_error(what + why);
  }
  return *value;
}

std::string sample_note(const Distribution& d, double q,
                        const std::string& what) {
  char note[160];
  std::snprintf(note, sizeof(note), "n=%zu %s, %zu beyond p%g", d.count(),
                what.c_str(), d.beyond(q), 100.0 * q);
  return note;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------- RegistryWindow --

void RegistryWindow::begin() {
  const obs::Registry& registry = obs::Registry::instance();
  for (const char* name : kCounters)
    counters_at_begin_[name] = registry.counter_value(name);
  for (const char* name : kHistograms)
    hist_at_begin_[name] = registry.histogram_snapshot(name);
}

void RegistryWindow::end() {
  const obs::Registry& registry = obs::Registry::instance();
  for (const char* name : kCounters)
    counters_[name] +=
        registry.counter_value(name) - counters_at_begin_.at(name);
  for (const char* name : kHistograms) {
    const obs::HistogramSnapshot now = registry.histogram_snapshot(name);
    const obs::HistogramSnapshot& then = hist_at_begin_.at(name);
    obs::HistogramSnapshot& sum = hists_[name];
    sum.count += now.count - then.count;
    sum.sum += now.sum - then.sum;
    // The registry keeps only a lifetime max: an upper bound here.
    sum.max = std::max(sum.max, now.max);
    for (std::size_t b = 0; b < obs::HistogramSnapshot::kBuckets; ++b)
      sum.buckets[b] += now.buckets[b] - then.buckets[b];
  }
}

std::uint64_t RegistryWindow::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  if (it == counters_.end())
    throw std::logic_error("counter outside the measured window: " + name);
  return it->second;
}

obs::HistogramSnapshot RegistryWindow::histogram(
    const std::string& name) const {
  const auto it = hists_.find(name);
  if (it == hists_.end())
    throw std::logic_error("histogram outside the measured window: " + name);
  return it->second;
}

double RegistryWindow::histogram_sum_ms(const std::string& name) const {
  return static_cast<double>(histogram(name).sum) / 1e6;
}

double RegistryWindow::histogram_mean_ms(const std::string& name) const {
  return histogram(name).mean() / 1e6;
}

double RegistryWindow::histogram_quantile_ms(const std::string& name,
                                             double q) const {
  return histogram(name).quantile(q) / 1e6;
}

// ------------------------------------------------------------------ Tracer --

Tracer::Scope::Scope(Tracer* tracer, const char* name, const char* layer,
                     std::uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.layer = layer;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  span_.parent = t_parent;
  span_.request = request != 0 ? request : t_request;
  span_.thread = thread_index();
  saved_parent_ = t_parent;
  saved_request_ = t_request;
  t_parent = span_.id;
  t_request = span_.request;
  span_.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       SteadyClock::now() - tracer_->epoch_)
                       .count();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     SteadyClock::now() - tracer_->epoch_)
                     .count();
  t_parent = saved_parent_;
  t_request = saved_request_;
  tracer_->record(span_);
}

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Children run on their parent's thread inside its interval, so the part
  // of a span its children cover is the sum of their durations.
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : spans_)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, double> self_ms;
  for (const Span& s : spans_) {
    const auto it = child_ns.find(s.id);
    const std::int64_t self =
        s.end_ns - s.start_ns - (it == child_ns.end() ? 0 : it->second);
    self_ms[s.layer] += static_cast<double>(std::max<std::int64_t>(self, 0)) /
                        1e6;
  }
  return self_ms;
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char event[384];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(
        event, sizeof(event),
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
        "\"parent\":%llu,\"request\":%llu}}",
        i == 0 ? "" : ",", s.name, s.layer, s.thread,
        static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.request));
    out << event;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to " + path);
}

// ------------------------------------------------------------------ Slicer --

void Slicer::run_until(SteadyClock::time_point end) {
  // Half-second slices: many per run, while each holds hundreds of
  // requests for the one a slice boundary lands inside.
  constexpr auto kSlice = std::chrono::milliseconds(500);
  std::size_t slice = 0;
  for (auto t = SteadyClock::now(); t < end; ++slice) {
    tracer_.set_active(traced(slice));
    current_.store(slice, std::memory_order_relaxed);
    std::this_thread::sleep_until(
        std::min<SteadyClock::time_point>(end, t + kSlice));
    const auto now = SteadyClock::now();
    seconds_.push_back(seconds_between(t, now));
    t = now;
  }
  current_.store(slice, std::memory_order_relaxed);
  tracer_.set_active(false);
}

std::vector<std::size_t> middle_half(const std::vector<double>& values) {
  std::vector<std::size_t> order(values.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return values[a] < values[b];
  });
  const std::size_t quarter = values.size() / 4;
  return {order.begin() + static_cast<std::ptrdiff_t>(quarter),
          order.end() - static_cast<std::ptrdiff_t>(quarter)};
}

// ------------------------------------------------------------------ Result --

void Result::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Result::absorb(const Result& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& f : other.failures)
    if (failures.size() < 8) failures.push_back(f);
}

void add_registry_layers(const RegistryWindow& registry, double kops,
                         Result& result) {
  auto per_kop = [kops](double v) { return kops > 0.0 ? v / kops : 0.0; };
  auto count = [&registry](const char* name) {
    return static_cast<double>(registry.counter(name));
  };
  auto& layers = result.layers;
  layers["engine.sample_ms"] =
      per_kop(registry.histogram_sum_ms("nyqmon_engine_stage_sample_ns"));
  layers["engine.fft_ms"] =
      per_kop(registry.histogram_sum_ms("nyqmon_engine_stage_fft_ns"));
  layers["engine.reconstruct_ms"] = per_kop(
      registry.histogram_sum_ms("nyqmon_engine_stage_reconstruct_ns"));
  layers["engine.audit_ms"] =
      per_kop(registry.histogram_sum_ms("nyqmon_engine_stage_audit_ns"));

  const double acquisitions = count("nyqmon_store_lock_acquisitions_total");
  layers["store.lock_contended_frac"] =
      acquisitions > 0.0
          ? count("nyqmon_store_lock_contended_total") / acquisitions
          : 0.0;
  layers["store.lock_wait_ms"] =
      per_kop(registry.histogram_sum_ms("nyqmon_store_lock_wait_ns"));
  layers["store.generation_bumps"] =
      per_kop(count("nyqmon_store_generation_bumps_total"));

  layers["storage.wal_fsync_ms"] =
      registry.histogram_mean_ms("nyqmon_wal_fsync_ns");
  layers["storage.wal_fsyncs"] = per_kop(
      static_cast<double>(registry.histogram("nyqmon_wal_fsync_ns").count));
  layers["storage.compact_ms"] =
      per_kop(registry.histogram_sum_ms("nyqmon_storage_compact_ns"));
  layers["storage.compactions"] =
      per_kop(count("nyqmon_storage_compactions_total"));

  const double hits = count("nyqmon_query_cache_hits_total");
  const double misses = count("nyqmon_query_cache_misses_total");
  layers["query.engine_p50_ms"] =
      registry.histogram_quantile_ms("nyqmon_query_latency_ns", 0.50);
  layers["query.engine_p99_ms"] =
      registry.histogram_quantile_ms("nyqmon_query_latency_ns", 0.99);
  layers["query.cache_hit_frac"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  layers["query.streams_reconstructed_per_query"] =
      misses > 0.0 ? count("nyqmon_query_streams_reconstructed_total") / misses
                   : 0.0;

  layers["server.query_dispatch_ms"] =
      registry.histogram_mean_ms("nyqmon_server_query_latency_ns");
  layers["server.ingest_dispatch_ms"] =
      registry.histogram_mean_ms("nyqmon_server_ingest_latency_ns");
  layers["server.quiesce_wait_ms"] =
      registry.histogram_mean_ms("nyqmon_reactor_quiesce_wait_ns");
  layers["server.backpressure_stalls"] =
      per_kop(count("nyqmon_server_backpressure_stalls_total"));

  layers["cluster.fanout_ms"] =
      registry.histogram_mean_ms("nyqmon_router_fanout_latency_ns");
  layers["cluster.backend_errors"] =
      per_kop(count("nyqmon_router_backend_errors_total"));
}

// ----------------------------------------------------------------- helpers --

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

unsigned online_cores() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

const std::vector<std::pair<std::string, std::string>>& layer_catalog() {
  // Units: ms/kop and 1/kop are per 1000 of the workload's operations
  // (pair-windows, ingested values, queries); see perfbench/METRICS.md.
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"engine.sample_ms", "ms/kop"},
      {"engine.fft_ms", "ms/kop"},
      {"engine.reconstruct_ms", "ms/kop"},
      {"engine.audit_ms", "ms/kop"},
      {"engine.samples_acquired", "1/kop"},
      {"engine.savings_ratio", "ratio"},
      {"engine.nrmse_p95", "ratio"},
      {"runtime.poll_p50_ms", "ms"},
      {"runtime.poll_max_ms", "ms"},
      {"runtime.polls", "1/kop"},
      {"runtime.windows_per_poll", "count"},
      {"runtime.cpu_frac", "ratio"},
      {"store.snapshot_ms", "ms"},
      {"store.lock_contended_frac", "ratio"},
      {"store.lock_wait_ms", "ms/kop"},
      {"store.generation_bumps", "1/kop"},
      {"storage.checkpoint_p50_ms", "ms"},
      {"storage.checkpoint_max_ms", "ms"},
      {"storage.checkpoints", "1/kop"},
      {"storage.wal_fsync_ms", "ms"},
      {"storage.wal_fsyncs", "1/kop"},
      {"storage.wal_bytes_per_value", "B/value"},
      {"storage.segment_bytes_per_value", "B/value"},
      {"storage.write_bytes_per_value", "B/value"},
      {"storage.compact_ms", "ms/kop"},
      {"storage.compactions", "1/kop"},
      {"storage.recover_s", "s"},
      {"storage.recover_wal_records", "count"},
      {"storage.recover_segments", "count"},
      {"query.engine_p50_ms", "ms"},
      {"query.engine_p99_ms", "ms"},
      {"query.cache_hit_frac", "ratio"},
      {"query.streams_reconstructed_per_query", "count"},
      {"query.stage.snapshot_ms", "ms"},
      {"query.stage.match_ms", "ms"},
      {"query.stage.prune_ms", "ms"},
      {"query.stage.reconstruct_ms", "ms"},
      {"query.stage.aggregate_ms", "ms"},
      {"server.query_dispatch_ms", "ms"},
      {"server.ingest_dispatch_ms", "ms"},
      {"server.write_p99_ms", "ms"},
      {"server.quiesce_wait_ms", "ms"},
      {"server.backpressure_stalls", "1/kop"},
      {"cluster.scatter_ms", "ms"},
      {"cluster.merge_ms", "ms"},
      {"cluster.backend_wait_ms", "ms"},
      {"cluster.fanout_ms", "ms"},
      {"cluster.backend_errors", "1/kop"},
      {"loadgen.lag_p99_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  return kCatalog;
}

}  // namespace perfbench
