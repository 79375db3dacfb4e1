// Cost-vs-quality frontier sweeps over a scenario fleet.
//
// The paper's central claim is a sweet spot: adaptive Nyquist-rate
// collection should hold reconstruction error roughly flat while slashing
// sample volume. run_frontier() maps where that frontier sits per signal
// family: it runs the same scenario fleet through a virtual-clock
// rt::StreamingRuntime once per knob combination on a grid of
//   * estimator energy cutoff — the target-fidelity knob (how much of the
//     window's spectral energy the Nyquist estimate must capture), and
//   * max rate slowdown — the cost-bound knob (how far below the
//     production rate the sampler may settle),
// and aggregates savings / NRMSE / retention-byte outcomes per scenario
// group. One FrontierCell is one (group × grid point); the set of cells
// for a group traces its savings-vs-error frontier.
//
// Ownership: the caller keeps the BuiltScenario alive across the sweep.
// Threading: run_frontier() is a blocking single-caller driver; each grid
// point runs one (internally multi-threaded) runtime. Determinism: cells
// inherit the runtime's bit-identical-across-workers contract — a sweep's
// numeric content depends only on (spec, grid, engine config), never on
// worker count or wall-clock (wall_seconds aside).
#pragma once

#include <string>
#include <vector>

#include "engine/engine.h"
#include "scenario/scenario.h"

namespace nyqmon::scn {

struct FrontierConfig {
  /// The target-fidelity axis: sampler-side estimator energy cutoffs.
  std::vector<double> energy_cutoffs = {0.90, 0.95, 0.99};
  /// The cost-bound axis: how far below production rate a pair may settle.
  std::vector<double> max_slowdowns = {4.0, 16.0, 64.0};
  /// Template engine config (workers, windows, store, seed). The sweep
  /// overrides sampler.estimator.energy_cutoff and max_slowdown per point.
  eng::EngineConfig engine;
};

/// One scenario group at one grid point.
struct FrontierCell {
  std::string group;
  SignalFamily family = SignalFamily::kGauge;
  tel::MetricKind metric = tel::MetricKind::kTemperature;
  double energy_cutoff = 0.0;
  double max_slowdown = 0.0;
  std::size_t pairs = 0;
  /// Group-wide sample-count savings: sum(baseline) / sum(adaptive).
  double cost_savings = 0.0;
  /// NRMSE quantiles over the group's finite per-pair values.
  double nrmse_p50 = 0.0;
  double nrmse_p95 = 0.0;
  std::size_t nrmse_degenerate = 0;  ///< flat traces with no finite NRMSE
  /// Group retention bill: raw bytes / stored bytes.
  double byte_compression = 0.0;
  /// Fraction of adaptation windows the dual-rate detector fired in.
  double aliased_fraction = 0.0;
};

struct FrontierResult {
  std::string scenario;
  std::vector<FrontierCell> cells;  ///< grid-major, groups in spec order
  std::size_t grid_points = 0;
  std::size_t pair_runs = 0;  ///< total per-pair pipeline executions
  double wall_seconds = 0.0;  ///< not part of the deterministic content
};

/// Sweep the grid. Every grid point runs a fresh runtime over
/// `built.fleet` (runs are single-shot) with the same seed, so cells are
/// comparable: the only thing that varies across a row is the knobs.
FrontierResult run_frontier(const BuiltScenario& built,
                            const FrontierConfig& config);

/// Fixed-width table: one block per grid point, one row per group.
std::string render(const FrontierResult& result);

/// One CSV row per cell (the plot-ready frontier table).
void write_csv(const FrontierResult& result, const std::string& path);

}  // namespace nyqmon::scn
