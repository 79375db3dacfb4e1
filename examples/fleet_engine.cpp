// Fleet engine: drive a whole synthetic datacenter concurrently.
//
// Usage: fleet_engine [pairs|spec.scn] [workers] [persist_dir]
//        (defaults: 600 pairs, 4 workers, in-memory only)
//
// The fleet is scenario-driven: the first argument is either a stream
// count (the built-in default-mix scenario — all seven signal families,
// with correlation/dropout/clock-skew modifiers on a subset of groups) or
// a path to a scenario spec file (see scenarios/frontier.scn and
// src/scenario/spec.h for the format). Builds the fleet, runs it to
// completion through a virtual-clock StreamingRuntime (adaptive sampling +
// reconstruction + aliasing audit per pair, fan-in to the striped
// retention store), prints the fleet report, and queries one retained
// stream back out of the store. The argv
// overrides make it double as a quick scaling probe: try
// `fleet_engine 1613 1` vs `fleet_engine 1613 8`.
//
// With [persist_dir] the run is durable: every ingest batch is WAL-logged
// there and the store is checkpointed into compressed segments at the end.
// Reopen the directory cold with `fleet_query <persist_dir>`.
//
// Read the report's steady-state split, not just the headline savings:
// smooth oversampled metrics settle below their production rate, while the
// fleet's wideband event counters are flagged undersampled and driven
// faster — spending more there is the paper's fidelity trade, not waste.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "engine/report.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "scenario/scenario.h"

int main(int argc, char** argv) {
  using namespace nyqmon;

  const std::string fleet_arg = argc > 1 ? argv[1] : "600";
  const std::size_t workers =
      argc > 2 ? static_cast<std::size_t>(std::strtoull(argv[2], nullptr, 10))
               : 4;
  const std::string persist_dir = argc > 3 ? argv[3] : "";

  // A numeric first argument sizes the built-in default-mix scenario;
  // anything else is a spec file path.
  char* end = nullptr;
  const std::size_t pairs =
      static_cast<std::size_t>(std::strtoull(fleet_arg.c_str(), &end, 10));
  const bool numeric = end != nullptr && *end == '\0' && !fleet_arg.empty();
  if (numeric && pairs < 7) {
    std::fprintf(stderr, "usage: %s [pairs>=7|spec.scn] [workers] [persist_dir]\n",
                 argv[0]);
    return 2;
  }
  std::optional<scn::BuiltScenario> maybe_built;
  try {
    const scn::ScenarioSpec spec = numeric
                                       ? scn::default_scenario(pairs, 1234)
                                       : scn::load_scenario_file(fleet_arg);
    maybe_built.emplace(scn::build_scenario(spec));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 2;
  }
  const scn::BuiltScenario& built = *maybe_built;
  const tel::Fleet& fleet = built.fleet;
  std::printf("scenario %s: %zu group(s), %zu metric-device pairs\n",
              built.name.c_str(), built.groups.size(), fleet.size());
  for (const auto& g : built.groups)
    std::printf("  %-18s %-17s %4zu streams\n", g.name.c_str(),
                scn::family_name(g.family).c_str(), g.pairs);

  rt::RuntimeConfig cfg;
  cfg.engine.workers = workers;
  cfg.engine.storage.dir = persist_dir;  // empty = in-memory only
  rt::VirtualClock clock;
  rt::StreamingRuntime runtime(fleet, clock, cfg);
  const eng::FleetRunResult result = runtime.run_to_completion();

  const eng::EngineReport report = eng::build_report(result);
  std::printf("\n%s", eng::render(report).c_str());
  std::printf("wall: %.2fs (%.0f pairs/sec)\n", result.wall_seconds,
              static_cast<double>(fleet.size()) / result.wall_seconds);

  // Retained data stays queryable: pull the first pair's stream back out.
  const auto& pair = fleet.pairs().front();
  const std::string id = tel::stream_id(pair);
  const auto series = runtime.store().acquire_snapshot().query(
      id, 0.0, 32.0 * pair.metric.poll_interval_s);
  std::printf("\nquery %s -> %zu samples on the production grid "
              "(first %.3g, last %.3g)\n",
              id.c_str(), series.size(), series.values().front(),
              series.values().back());

  if (result.persisted) {
    std::printf(
        "\npersisted to %s: %zu stream(s), %zu chunk(s), %.2f MB segment "
        "(flush %.3fs); serve it cold with `fleet_query %s`\n",
        persist_dir.c_str(), result.flush.streams, result.flush.chunks,
        static_cast<double>(result.flush.bytes_written) / 1.0e6,
        result.flush.seconds, persist_dir.c_str());
  }
  return 0;
}
