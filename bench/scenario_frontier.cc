// Scenario frontier sweep: per-signal-family savings-vs-NRMSE frontier
// tables over the checked-in frontier-demo workload (or any spec file).
//
// Usage: bench_scenario_frontier [spec_path] [smoke|full]
//        (defaults: scenarios/frontier.scn, full)
//
// Sweeps the scenario fleet across the estimator energy-cutoff (target
// fidelity) x max-slowdown (rate bound) grid, prints the frontier table,
// writes the plot-ready CSV, cross-checks the determinism contract on one
// grid cell (1 vs 4 workers must digest identically), and
// emits the BENCH_scenario_frontier.json line the perf gate tracks
// (sweep_pairs_per_sec). `smoke` shrinks the grid and per-pair trace for
// the CI budget; the frontier shape is the same, just coarser.
#include <cstdio>
#include <string>

#include "common.h"
#include "engine/report.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "scenario/frontier.h"
#include "scenario/spec.h"

using namespace nyqmon;

int main(int argc, char** argv) {
  const std::string spec_path = argc > 1 ? argv[1] : "scenarios/frontier.scn";
  const std::string mode = argc > 2 ? argv[2] : "full";
  if (mode != "full" && mode != "smoke") {
    std::fprintf(stderr, "usage: %s [spec_path] [smoke|full]\n", argv[0]);
    return 2;
  }

  const scn::ScenarioSpec spec = scn::load_scenario_file(spec_path);
  const scn::BuiltScenario built = scn::build_scenario(spec);
  std::printf("scenario %s: %zu group(s), %zu streams\n", built.name.c_str(),
              built.groups.size(), built.fleet.size());

  scn::FrontierConfig cfg;
  if (mode == "smoke") {
    cfg.energy_cutoffs = {0.90, 0.99};
    cfg.max_slowdowns = {4.0, 64.0};
    cfg.engine.samples_per_window = 48;
    cfg.engine.windows_per_pair = 4;
  }

  const scn::FrontierResult result = scn::run_frontier(built, cfg);
  std::printf("\n%s\n", scn::render(result).c_str());
  scn::write_csv(result, bench::csv_path("scenario_frontier"));

  const double sweep_pps =
      static_cast<double>(result.pair_runs) / result.wall_seconds;
  std::printf("%zu grid point(s), %zu pair runs in %.2fs (%.1f pairs/sec)\n",
              result.grid_points, result.pair_runs, result.wall_seconds,
              sweep_pps);

  // Determinism cross-check on one grid cell: the sweep's numbers must
  // describe the same computation whatever the worker count.
  auto digest_with = [&](std::size_t workers) {
    rt::RuntimeConfig rcfg;
    rcfg.engine = cfg.engine;
    rcfg.engine.workers = workers;
    rcfg.engine.sampler.estimator.energy_cutoff = cfg.energy_cutoffs.front();
    rcfg.engine.max_slowdown = cfg.max_slowdowns.front();
    rt::VirtualClock clock;
    rt::StreamingRuntime runtime(built.fleet, clock, rcfg);
    return eng::run_digest(runtime.run_to_completion());
  };
  const bool deterministic = digest_with(1) == digest_with(4);
  std::printf("grid cell bit-identical at 1 vs 4 workers: %s\n",
              deterministic ? "yes" : "NO (BUG)");

  std::string families;
  for (const auto& g : built.groups) {
    if (!families.empty()) families += ',';
    families += '"';
    families += scn::family_name(g.family);
    families += '"';
  }
  bench::write_json_line(
      "scenario_frontier",
      "{\"bench\":\"scenario_frontier\",\"scenario\":\"" + built.name +
          "\",\"mode\":\"" + mode +
          "\",\"groups\":" + std::to_string(built.groups.size()) +
          ",\"pairs\":" + std::to_string(built.fleet.size()) +
          ",\"grid_points\":" + std::to_string(result.grid_points) +
          ",\"pair_runs\":" + std::to_string(result.pair_runs) +
          ",\"families\":[" + families + "],\"sweep_pairs_per_sec\":" +
          std::to_string(sweep_pps) + ",\"deterministic\":" +
          (deterministic ? "true" : "false") + "}");
  return deterministic ? 0 : 1;
}
