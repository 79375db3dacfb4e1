// Obs overhead smoke: the self-telemetry layer must cost <3% throughput.
//
// The claim in docs/OBSERVABILITY.md is that instrumentation is cheap
// enough to stay always-on. This harness verifies it with two
// instantiations of the same engine-shaped workload in one binary:
// `timed_window<true>` records exactly what one pipeline window records (one
// ScopedTimer histogram sample, an FFT-stage timer, and two counter
// bumps) plus one structured log record (obs/log.h is always armed) and
// one TraceContext wire round-trip (append + strip, the per-hop cost of
// distributed-tracing propagation); `timed_window<false>` elides all of it
// behind `if constexpr`, so the baseline is the same workload with no obs
// site compiled in, and no second build tree is needed.
// The workload itself is a real 1024-point windowed periodogram per event,
// matching the work-per-instrumentation ratio of the engine's window loop
// (an adaptive window costs tens of microseconds; its obs footprint is two
// clock reads, a few relaxed atomics, one ring write, and 21 trailer
// bytes).
//
// The two variants alternate window by window, each window timed on its
// own, and the overhead is the ratio of the two variants' median window
// times. Neighbouring windows of the two variants run microseconds apart,
// so slow machine-state drift (frequency scaling, a noisy co-tenant) hits
// both sides alike, and the medians ignore the windows that a preemption or
// an interrupt happened to land in; over thousands of windows a median
// resolves well under 1% on a shared host, where comparing the best of a
// few whole passes did not resolve the 3% budget. Exits non-zero when
// overhead exceeds the 3% budget — this runs as a ctest smoke, so a
// regression that makes instrumentation expensive fails CI.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/cdf.h"
#include "common.h"
#include "dsp/psd.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "server/protocol.h"

using namespace nyqmon;

namespace {

constexpr std::size_t kWindowSamples = 1024;
constexpr std::size_t kWindowsPerVariant = 8000;
/// Untimed lead-in: frequency scaling, caches, and the registry's first-use
/// registration settle before any window is recorded.
constexpr std::size_t kWarmupWindows = 600;

/// One engine-window-shaped unit of work: synthesize a drifting tone and
/// take its windowed periodogram (the estimator's FFT-bound core).
double window_work(std::vector<double>& buf, std::size_t window_index) {
  const double phase = 0.37 * static_cast<double>(window_index);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = std::sin(phase + 0.11 * static_cast<double>(i)) +
             0.25 * std::sin(2.9 * phase + 0.013 * static_cast<double>(i));
  const dsp::Psd psd = dsp::periodogram(buf, 100.0);
  return psd.total_energy();
}

/// One window of the workload, timed; `kInstrumented` adds what one
/// pipeline window records.
template <bool kInstrumented>
double timed_window(std::vector<double>& buf, std::size_t w,
                    double& checksum) {
  const auto t0 = std::chrono::steady_clock::now();
  if constexpr (kInstrumented) {
    NYQMON_OBS_TIMER("nyqmon_bench_overhead_window_ns");
    NYQMON_OBS_COUNT("nyqmon_bench_overhead_windows_total", 1);
    NYQMON_OBS_COUNT("nyqmon_bench_overhead_samples_total", kWindowSamples);
    // One structured log record per window (detail string built exactly
    // like a real call site's) ...
    NYQMON_LOG_INFO("bench.obs_overhead_window", "w=" + std::to_string(w));
    // ... and one TraceContext wire round-trip: what the cluster client
    // pays to stamp a request and a server pays to peel it.
    std::vector<std::uint8_t> wire{1};  // stand-in verb byte
    srv::append_trace_context(wire, srv::TraceContext{w + 1, w + 2, 1});
    std::span<const std::uint8_t> view(wire);
    const srv::TraceContext ctx = srv::strip_trace_context(view);
    checksum += static_cast<double>(ctx.trace_id & 1);  // defeats elision
    checksum += window_work(buf, w);
  } else {
    checksum += window_work(buf, w);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  std::vector<double> buf(kWindowSamples);
  double checksum = 0.0;  // defeats dead-code elimination of the workload

  std::vector<double> plain;
  std::vector<double> instrumented;
  for (std::size_t w = 0; w < kWarmupWindows + 2 * kWindowsPerVariant; ++w) {
    const bool odd = w % 2 == 1;
    const double t = odd ? timed_window<true>(buf, w, checksum)
                         : timed_window<false>(buf, w, checksum);
    if (w >= kWarmupWindows) (odd ? instrumented : plain).push_back(t * 1e6);
  }
  const double plain_us = ana::Cdf(plain).quantile(0.5);
  const double instrumented_us = ana::Cdf(instrumented).quantile(0.5);
  const double overhead_pct = (instrumented_us / plain_us - 1.0) * 100.0;

  std::printf("windows per variant: %zu (%zu samples each), alternating\n",
              kWindowsPerVariant, kWindowSamples);
  std::printf("plain        median: %.2fus\n", plain_us);
  std::printf("instrumented median: %.2fus\n", instrumented_us);
  std::printf("overhead:            %.2f%% (budget 3%%)  [checksum %.3g]\n",
              overhead_pct, checksum);

  const obs::HistogramSnapshot s = obs::Registry::instance().histogram_snapshot(
      "nyqmon_bench_overhead_window_ns");
  std::printf("instrumented window p50: %.1fus over %llu records\n",
              s.quantile(0.5) / 1e3, static_cast<unsigned long long>(s.count));

  std::string json = "{\"bench\":\"obs_overhead\"";
  bench::json_append(json, "\"plain_window_us\":%.3f", plain_us);
  bench::json_append(json, "\"instrumented_window_us\":%.3f",
                     instrumented_us);
  bench::json_append(json, "\"overhead_pct\":%.2f", overhead_pct);
  json += "}";
  bench::write_json_line("obs_overhead", json);

  if (overhead_pct >= 3.0) {
    std::fprintf(stderr, "FAIL: obs overhead %.2f%% exceeds the 3%% budget\n",
                 overhead_pct);
    return 1;
  }
  std::printf("PASS: obs overhead within budget\n");
  return 0;
}
