// nyqmond — the monitoring service: a live StreamingRuntime behind the
// nyqmond TCP protocol.
//
// Usage: nyqmond [pairs|spec.scn] [port] [persist_dir] [serve_seconds]
//                [reactors]
//
// A scenario-driven fleet (default: the built-in default-mix scenario at
// 200 streams; pass a spec file path — see scenarios/frontier.scn — for a
// custom workload) is driven by the streaming runtime under a virtual
// clock, replaying its multi-hour monitoring timeline as fast as the
// hardware allows, while the server answers INGEST/QUERY/STATS/CHECKPOINT
// clients on [port] (default 7411, 0 = ephemeral) the whole time — serving
// during ingest is the normal mode. With [persist_dir], every batch is
// write-ahead-logged and CHECKPOINT (or shutdown) seals segments there;
// reopen the directory with `fleet_query <dir>` for the cold-start view.
// Once the fleet's timeline completes, the server keeps serving for
// [serve_seconds] (default 0 — print the run summary and exit; use e.g.
// 3600 to keep a long-lived service for nyqmon_ctl sessions). [reactors]
// sets the server's event-loop count (default 0: one per online core, the
// server's own default); the startup line and `nyqmon_ctl stats` report
// the count in use.
//
// Self-telemetry is live the whole time: `nyqmon_ctl <host> <port> metrics`
// returns the Prometheus exposition of every internal counter/histogram,
// and trace capture is armed at startup so `nyqmon_ctl <host> <port> trace
// out.json` drains the most recent spans for chrome://tracing.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "obs/trace.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "scenario/scenario.h"
#include "server/server.h"

using namespace nyqmon;

int main(int argc, char** argv) {
  const std::string fleet_arg = argc > 1 ? argv[1] : "200";
  const auto port =
      static_cast<std::uint16_t>(argc > 2 ? std::atoi(argv[2]) : 7411);
  const std::string persist_dir = argc > 3 ? argv[3] : "";
  const double serve_seconds = argc > 4 ? std::atof(argv[4]) : 0.0;
  const std::size_t reactors =
      argc > 5 ? static_cast<std::size_t>(std::atol(argv[5])) : 0;

  char* end = nullptr;
  const std::size_t pairs =
      static_cast<std::size_t>(std::strtoull(fleet_arg.c_str(), &end, 10));
  const bool numeric = end != nullptr && *end == '\0' && !fleet_arg.empty();
  std::optional<scn::BuiltScenario> built;
  try {
    const scn::ScenarioSpec spec = numeric
                                       ? scn::default_scenario(pairs)
                                       : scn::load_scenario_file(fleet_arg);
    built.emplace(scn::build_scenario(spec));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 2;
  }
  const tel::Fleet& fleet = built->fleet;

  // Arm trace capture before any work runs: the TRACE verb then always has
  // the most recent window of engine/storage/server spans to drain.
  obs::TraceRecorder::instance().set_enabled(true);

  rt::VirtualClock clock;
  rt::RuntimeConfig cfg;
  cfg.engine.store.chunk_samples = 128;
  cfg.engine.storage.dir = persist_dir;
  cfg.checkpoint_interval_windows = persist_dir.empty() ? 0 : 256;
  rt::StreamingRuntime runtime(fleet, clock, cfg);

  srv::ServerConfig server_cfg;
  server_cfg.port = port;
  server_cfg.reactors = reactors;
  server_cfg.checkpoint_fn = [&runtime] { return runtime.checkpoint(); };
  srv::NyqmondServer server(runtime.mutable_store(), nullptr, server_cfg);
  server.start();
  std::printf("nyqmond: %zu pairs, %zu reactor(s), listening on "
              "127.0.0.1:%u%s\n",
              fleet.size(), server.config().reactors, server.port(),
              persist_dir.empty() ? ""
                                  : (" (persisting to " + persist_dir + ")")
                                        .c_str());

  // Drive the fleet's timeline in the background while the server serves.
  std::thread driver([&runtime] {
    while (!runtime.done()) runtime.step();
  });
  while (!runtime.done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    const rt::RuntimeStats s = runtime.stats();
    std::printf("  t=%.0fs  pairs %zu/%zu  windows %llu  ingested %llu\n",
                s.now_s, s.pairs_done, s.pairs,
                static_cast<unsigned long long>(s.windows_processed),
                static_cast<unsigned long long>(s.values_ingested));
  }
  driver.join();
  const eng::FleetRunResult result = runtime.run_to_completion();

  std::printf(
      "timeline complete: %zu pairs, fleet cost savings %.2fx, "
      "store %.2fx sample reduction, %.2fx byte compression\n",
      result.pairs.size(), result.fleet_cost_savings(),
      result.store.reduction(), result.store.compression_ratio());
  if (result.persisted)
    std::printf("checkpointed: %zu streams, %llu bytes of segments\n",
                result.flush.streams,
                static_cast<unsigned long long>(result.storage.segment_bytes));

  if (serve_seconds > 0.0) {
    std::printf("serving for %.0fs more (nyqmon_ctl 127.0.0.1 %u stats)\n",
                serve_seconds, server.port());
    std::this_thread::sleep_for(std::chrono::duration<double>(serve_seconds));
  }
  server.stop();
  const srv::ServerStats ss = server.stats();
  std::printf("served %llu frames (%llu queries, %llu ingests) over %llu "
              "connections\n",
              static_cast<unsigned long long>(ss.frames),
              static_cast<unsigned long long>(ss.query_frames),
              static_cast<unsigned long long>(ss.ingest_frames),
              static_cast<unsigned long long>(ss.connections_accepted));
  return 0;
}
