// Fleet-level aggregation of a run's per-pair outcomes.
//
// Rolls per-pair outcomes up into per-metric-kind distributions of cost
// savings and reconstruction NRMSE (the fleet-scale analogue of the paper's
// Figure 4 reduction CDFs), plus the fleet-wide cost/retention summary.
// Rendering reuses the analysis layer (Cdf quantiles, ASCII tables) and the
// whole report exports to CSV for downstream plotting.
//
// Ownership: reports are self-contained value types copied out of a
// FleetRunResult; they hold no references into the runtime. Threading:
// build/render/write are pure functions of their input — safe to call
// concurrently on distinct results. Determinism: everything derived here
// is a pure fold over per-pair outcomes in pair order, so reports (and
// run_digest below) inherit the run's bit-identical-across-workers
// guarantee; only wall_seconds and worker accounting vary.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace nyqmon::eng {

/// Aggregates for one metric kind.
struct MetricFleetReport {
  tel::MetricKind kind = tel::MetricKind::kTemperature;
  std::size_t pairs = 0;
  std::vector<double> cost_savings;  ///< one entry per pair
  /// Finite NRMSE values only. A bursty counter whose ground truth stays
  /// flat over the run has no meaningful range normalization; those pairs
  /// are counted in nrmse_degenerate instead.
  std::vector<double> nrmse;
  std::size_t nrmse_degenerate = 0;
  std::size_t windows = 0;
  std::size_t aliased_windows = 0;
  std::size_t probe_windows = 0;
  /// Retention byte bill summed over this kind's pairs: raw f64 bytes vs
  /// the codec-encoded footprint (Nyquist re-sampling × Gorilla-XOR).
  std::uint64_t bytes_raw = 0;
  std::uint64_t bytes_stored = 0;

  double compression_ratio() const {
    return mon::ratio_or_one(bytes_raw, bytes_stored);
  }

  double aliased_fraction() const {
    return windows == 0 ? 0.0
                        : static_cast<double>(aliased_windows) /
                              static_cast<double>(windows);
  }
};

struct EngineReport {
  std::map<tel::MetricKind, MetricFleetReport> by_metric;
  /// Per-pair production_rate / final_rate: where the sampler settled after
  /// the probe/track transient. > 1 means the pair settled below its
  /// production rate (the paper's oversampling headroom); < 1 means the
  /// dual-rate detector kept firing and the sampler drove the rate up —
  /// the pair was undersampled at its production rate, so the extra cost
  /// buys back fidelity rather than being waste.
  std::vector<double> steady_rate_reduction;
  std::size_t pairs = 0;
  mon::Cost adaptive_cost;
  mon::Cost baseline_cost;
  double fleet_cost_savings = 0.0;
  mon::StoreRollup store;
  std::size_t workers_used = 0;
  double wall_seconds = 0.0;
  /// Durable-tier outcome (meaningful when persisted: see FleetRunResult).
  bool persisted = false;
  sto::FlushStats flush;
  sto::StorageStats storage;
};

EngineReport build_report(const FleetRunResult& result);

/// Bitwise FNV-1a digest of a run's deterministic content: per-pair
/// outcomes (cost/NRMSE/sample counts/audit, NaN-safe via bit patterns)
/// plus the store fan-in aggregates. Two runs over the same fleet, seed
/// and config must digest identically whatever the worker count — the
/// compact form of the run's determinism contract, shared by
/// bench_engine_throughput, bench_scenario_frontier and the engine and
/// scenario tests. Excludes wall_seconds, worker accounting and
/// durable-tier stats.
std::uint64_t run_digest(const FleetRunResult& result);

/// Render the per-metric quantile tables plus the fleet summary block.
std::string render(const EngineReport& report);

/// One CSV row per metric kind (savings/NRMSE quantiles, aliasing).
void write_csv(const EngineReport& report, const std::string& path);

}  // namespace nyqmon::eng
