// Engine throughput: pairs/sec of a virtual-clock rt::StreamingRuntime run
// to completion as the worker count grows, over a paper-scale (>= 500
// pairs) fleet.
//
// Each worker-count run reports its own *delta* of the five per-pair stage
// histograms (sample, with its acquire and fft slices / reconstruct /
// audit) — the table shows where the scaling went, not just the ratio.
//
// Also cross-checks the determinism contract: the per-pair aggregates must
// be bit-identical whatever the worker count, so the scaling numbers
// describe the *same* computation.
//
// Scaling efficiency is reported core-aware: a speedup is normalized by
// the parallelism the host can actually grant, min(workers, online cores).
// On a box with >= 8 cores this is exactly the classic speedup/workers; on
// a 1-core CI container it degenerates to pps(N)/pps(1), which is the
// honest question there ("does adding workers cost anything?"). The raw
// speedup/workers number is printed and emitted alongside it.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.h"
#include "engine/report.h"
#include "obs/metrics.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "util/ascii.h"
#include "util/csv.h"

using namespace nyqmon;

namespace {

constexpr const char* kStageHistograms[] = {
    "nyqmon_engine_stage_sample_ns", "nyqmon_engine_stage_acquire_ns",
    "nyqmon_engine_stage_fft_ns", "nyqmon_engine_stage_reconstruct_ns",
    "nyqmon_engine_stage_audit_ns"};
constexpr const char* kStageNames[] = {"sample", "acquire", "fft",
                                       "reconstruct", "audit"};
constexpr std::size_t kStages = 5;

/// Snapshot of the stage histograms (cumulative since process start).
struct StageSnapshot {
  obs::HistogramSnapshot stage[kStages];
  static StageSnapshot take() {
    StageSnapshot s;
    for (std::size_t i = 0; i < kStages; ++i)
      s.stage[i] = obs::Registry::instance().histogram_snapshot(
          kStageHistograms[i]);
    return s;
  }
};

/// The histogram delta `after - before`: what one worker-count run alone
/// contributed. HistogramSnapshot is a plain value type, so the difference
/// of counts/sums/buckets is itself a valid snapshot to take quantiles of.
obs::HistogramSnapshot delta(const obs::HistogramSnapshot& before,
                             const obs::HistogramSnapshot& after) {
  obs::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.max = after.max;  // max is cumulative; report the high-water mark
  for (std::size_t b = 0; b < obs::HistogramSnapshot::kBuckets; ++b)
    d.buckets[b] = after.buckets[b] - before.buckets[b];
  return d;
}

/// Process CPU time (user + system) in seconds, for cpu_utilization.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

}  // namespace

int main() {
  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 500;
  fleet_cfg.seed = bench::kFleetSeed;
  const tel::Fleet fleet(fleet_cfg);
  const std::size_t cores = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  std::printf("fleet: %zu metric-device pairs, %zu online core(s)\n\n",
              fleet.size(), cores);

  AsciiTable table({"workers", "wall_s", "pairs_per_sec", "speedup",
                    "cpu_util", "digest"});
  CsvWriter csv(bench::csv_path("engine_throughput"),
                {"workers", "wall_s", "pairs_per_sec", "speedup", "cpu_util"});

  // Per-worker-count stage breakdown: each run's own histogram delta, so
  // the rows are comparable (the registry is cumulative across runs).
  AsciiTable stages({"workers", "stage", "count", "total_ms", "p50_us",
                     "p99_us", "max_us"});

  double base_wall = 0.0;
  std::uint64_t base_digest = 0;
  bool deterministic = true;
  std::string json_workers, json_pps, json_cpu;
  std::vector<double> pps_by_workers;
  std::size_t max_workers = 1;
  for (const std::size_t workers : {1, 2, 4, 8}) {
    rt::RuntimeConfig cfg;
    cfg.engine.workers = workers;
    rt::VirtualClock clock;
    rt::StreamingRuntime runtime(fleet, clock, cfg);

    const StageSnapshot before = StageSnapshot::take();
    const double cpu_before = process_cpu_seconds();
    const eng::FleetRunResult result = runtime.run_to_completion();
    const double cpu_used = process_cpu_seconds() - cpu_before;
    const StageSnapshot after = StageSnapshot::take();

    const std::uint64_t d = eng::run_digest(result);
    if (workers == 1) {
      base_wall = result.wall_seconds;
      base_digest = d;
    } else if (d != base_digest) {
      deterministic = false;
    }
    const double pps =
        static_cast<double>(fleet.size()) / result.wall_seconds;
    const double cpu_util = cpu_used / result.wall_seconds;
    char dig[24];
    std::snprintf(dig, sizeof(dig), "%016llx",
                  static_cast<unsigned long long>(d));
    table.row({std::to_string(workers),
               AsciiTable::format_double(result.wall_seconds),
               AsciiTable::format_double(pps),
               AsciiTable::format_double(base_wall / result.wall_seconds),
               AsciiTable::format_double(cpu_util), dig});
    csv.row_numeric({static_cast<double>(workers), result.wall_seconds, pps,
                     base_wall / result.wall_seconds, cpu_util});

    for (std::size_t i = 0; i < kStages; ++i) {
      const obs::HistogramSnapshot ds =
          delta(before.stage[i], after.stage[i]);
      stages.row({std::to_string(workers), kStageNames[i],
                  std::to_string(ds.count),
                  AsciiTable::format_double(
                      static_cast<double>(ds.sum) / 1e6),
                  AsciiTable::format_double(ds.quantile(0.50) / 1e3),
                  AsciiTable::format_double(ds.quantile(0.99) / 1e3),
                  AsciiTable::format_double(
                      static_cast<double>(ds.max) / 1e3)});
    }

    bench::json_append(json_workers, "%zu", workers);
    bench::json_append(json_pps, "%.1f", pps);
    bench::json_append(json_cpu, "%.2f", cpu_util);
    pps_by_workers.push_back(pps);
    max_workers = workers;
  }

  // Worker-scaling efficiency (ROADMAP item 1's headline number). The raw
  // form divides the widest configuration's speedup by its worker count;
  // the core-aware form divides by the parallelism the host can actually
  // grant, min(workers, cores) — identical on hosts with cores >= workers,
  // and pps(N)/pps(1) on narrower machines.
  const double speedup =
      pps_by_workers.size() < 2 || pps_by_workers.front() <= 0.0
          ? 0.0
          : pps_by_workers.back() / pps_by_workers.front();
  const double scaling_efficiency_raw =
      speedup / static_cast<double>(max_workers);
  const double scaling_efficiency = std::min(
      1.0, speedup / static_cast<double>(std::min(max_workers, cores)));

  std::printf("%s\n", table.render().c_str());
  std::printf("per-run stage histogram deltas:\n%s\n",
              stages.render().c_str());
  std::printf("aggregates bit-identical across worker counts: %s\n",
              deterministic ? "yes" : "NO (BUG)");
  std::printf(
      "scaling efficiency (%zu workers): raw speedup/workers = %.3f; "
      "core-aware min(1, speedup/min(workers, %zu cores)) = %.3f\n",
      max_workers, scaling_efficiency_raw, cores, scaling_efficiency);

  char eff[32], eff_raw[32];
  std::snprintf(eff, sizeof(eff), "%.3f", scaling_efficiency);
  std::snprintf(eff_raw, sizeof(eff_raw), "%.3f", scaling_efficiency_raw);
  bench::write_json_line(
      "engine_throughput",
      "{\"bench\":\"engine_throughput\",\"pairs\":" +
          std::to_string(fleet.size()) + ",\"online_cores\":" +
          std::to_string(cores) + ",\"workers\":[" + json_workers +
          "],\"pairs_per_sec\":[" + json_pps + "],\"cpu_utilization\":[" +
          json_cpu + "],\"scaling_efficiency\":" + eff +
          ",\"scaling_efficiency_raw\":" + eff_raw +
          ",\"deterministic\":" + (deterministic ? "true" : "false") + "}");
  return deterministic ? 0 : 1;
}
