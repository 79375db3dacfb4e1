// fleet_ingest — the paper's collection path (ROADMAP path (a)).
//
// A StreamingRuntime drives a 2000-pair fleet of eight
// scn::default_scenario(250, seed) mixes on a VirtualClock with one worker
// per online core and a durable tier (WAL + segments); the benchmark
// checkpoints about a dozen times a round and runs no queries. A
// round replays the whole timeline from a fresh runtime (a fixed operation
// count, whatever the ingest speed), and rounds repeat until the measured
// time is spent, at least kMinRounds of them. Each round ends with a cold
// recover() of a copy of the directory taken after the last window and
// before the final checkpoint, so WAL replay is part of it.
//
// Checks: every stream of the recovered store answers bit-identically to
// the live store, and every round reproduces the deterministic figures
// (savings ratio, NRMSE p95, bytes written per value) exactly.
#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>

#include "analysis/cdf.h"
#include "engine/report.h"
#include "harness.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "scenario/scenario.h"

namespace perfbench {

namespace {

using namespace nyqmon;

/// Set-up repetitions per run; setup_s is their median.
constexpr std::size_t kSetupReps = 7;
/// Independent default mixes the fleet is made of. default_scenario draws
/// one shared signal for its correlated group, so the sampling work of a
/// single mix moves by up to 15% between seeds; eight mixes, their groups
/// renamed apart so each draws its own, average that out.
constexpr std::size_t kMixes = 8;
/// Poll beats each set-up drives (and discards) to warm allocators,
/// per-thread DSP workspaces and the page cache.
constexpr std::size_t kWarmupBeats = 3;
/// The benchmark checkpoints at the first beat after each 1/16 of a
/// round's windows. Beats are lumpy, so that makes about a dozen
/// checkpoints, and past eight live segments a flush compacts inline: each
/// round exercises compaction too.
constexpr std::uint64_t kCheckpointsPerRound = 16;
/// Rounds a run makes however fast it goes. Latency comes from the middle
/// half of the rounds, and a round's timeline has 29 poll beats, so eight
/// rounds put at least ten beats beyond the 0.9 quantile.
constexpr std::size_t kMinRounds = 8;

struct RoundStats {
  bool traced = false;
  double ingest_s = 0.0;  ///< first poll through the final checkpoint
  std::uint64_t windows = 0;
  std::uint64_t polls = 0;
  std::uint64_t samples_acquired = 0;
  std::uint64_t values = 0;
  Distribution visible_ms;  ///< one sample per poll beat
  std::vector<double> poll_ms, snapshot_ms, checkpoint_ms;
  double savings = 0.0;
  double nrmse_p95 = 0.0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t segment_bytes = 0;
  double recover_s = 0.0;
  sto::RecoveryStats recovery;
};

/// kMixes copies of default_scenario(pairs / kMixes, seed) in one spec.
scn::ScenarioSpec fleet_spec(std::size_t pairs, std::uint64_t seed) {
  const scn::ScenarioSpec mix = scn::default_scenario(pairs / kMixes, seed);
  scn::ScenarioSpec spec = mix;
  spec.groups.clear();
  for (std::size_t m = 0; m < kMixes; ++m) {
    for (scn::StreamGroupSpec group : mix.groups) {
      group.name += '#';
      group.name += std::to_string(m);
      spec.groups.push_back(std::move(group));
    }
  }
  return spec;
}

rt::RuntimeConfig runtime_config(const std::string& dir) {
  rt::RuntimeConfig cfg;
  cfg.engine.workers = online_cores();
  cfg.engine.store.chunk_samples = 128;
  cfg.engine.storage.dir = dir;
  return cfg;
}

/// p95 NRMSE over the pairs the engine report keeps (finite NRMSE).
double nrmse_p95(const eng::FleetRunResult& run) {
  const eng::EngineReport report = eng::build_report(run);
  std::vector<double> finite;
  for (const auto& entry : report.by_metric)
    finite.insert(finite.end(), entry.second.nrmse.begin(),
                  entry.second.nrmse.end());
  return finite.empty() ? 0.0 : ana::Cdf(finite).quantile(0.95);
}

/// Segment bytes one checkpoint wrote: the flushed segment, plus the
/// compacted one when the flush compacted inline (which leaves the
/// compacted segment the only live one).
std::uint64_t segment_bytes_written(std::uint64_t flushed,
                                    const sto::StorageStats& before,
                                    const sto::StorageStats& after) {
  return flushed +
         (after.compactions > before.compactions ? after.segment_bytes : 0);
}

std::uint64_t fleet_digest(const tel::Fleet& fleet) {
  std::uint64_t h = kFoldSeed;
  for (const tel::FleetPair& pair : fleet.pairs()) {
    h = fold(h, std::hash<std::string>{}(tel::stream_id(pair)));
    h = fold(h, std::bit_cast<std::uint64_t>(pair.metric.poll_interval_s));
    for (const double t : {0.0, 17.0, 333.0})
      h = fold(h, std::bit_cast<std::uint64_t>(pair.metric.signal->value(t)));
  }
  return h;
}

/// Every stream of `recovered` must answer its whole ingested range
/// bit-identically to `live`. Returns the number of streams compared.
std::size_t verify_recovery(const mon::StripedRetentionStore& live,
                            const mon::StripedRetentionStore& recovered,
                            Result& result) {
  const mon::ReadSnapshot a = live.acquire_snapshot();
  const mon::ReadSnapshot b = recovered.acquire_snapshot();
  if (a.size() != b.size())
    result.fail("recover() restored " + std::to_string(b.size()) +
                " streams, the live store holds " + std::to_string(a.size()));
  for (const mon::StreamView& view : a.views()) {
    const auto meta = a.find_meta(view.name);
    const auto cold = b.find_meta(view.name);
    if (!cold.has_value() ||
        cold->ingested_samples != meta->ingested_samples) {
      result.fail("stream " + view.name +
                  " is missing or short after recover()");
      continue;
    }
    const sig::RegularSeries x = a.query(view.name, meta->t0, meta->t_end);
    const sig::RegularSeries y = b.query(view.name, meta->t0, meta->t_end);
    if (x.t0() != y.t0() || x.dt() != y.dt() ||
        !same_bits(x.values(), y.values()))
      result.fail("stream " + view.name +
                  " answers differently after recover()");
  }
  return a.size();
}

/// One full replay of the fleet's timeline, its cold recovery, and the
/// recovery check. The registry window and CPU clock cover ingest only.
RoundStats drive_round(const tel::Fleet& fleet, const Options& options,
                       Tracer& tracer, RegistryWindow& registry,
                       double& ingest_cpu_s, Result& result) {
  const std::string dir = options.work_dir + "/fleet_ingest/live";
  const std::string copy = options.work_dir + "/fleet_ingest/cold";
  fresh_dir(dir);
  std::filesystem::remove_all(copy);

  RoundStats r;
  rt::VirtualClock clock;
  const rt::RuntimeConfig cfg = runtime_config(dir);
  rt::StreamingRuntime runtime(fleet, clock, cfg);
  const std::uint64_t every = std::max<std::uint64_t>(
      1, fleet.size() * cfg.engine.windows_per_pair / kCheckpointsPerRound);

  registry.begin();
  const double cpu0 = process_cpu_seconds();
  const auto t_start = SteadyClock::now();
  std::uint64_t since_checkpoint = 0;
  while (!runtime.done()) {
    auto beat = tracer.span("beat", "loadgen", tracer.next_request_id());
    clock.sleep_until_s(runtime.next_deadline_s());
    const auto t0 = SteadyClock::now();
    std::size_t windows = 0;
    {
      auto span = tracer.span("poll", "runtime");
      windows = runtime.poll();
    }
    const auto t1 = SteadyClock::now();
    {
      auto span = tracer.span("acquire_snapshot", "store");
      const mon::ReadSnapshot visible = runtime.store().acquire_snapshot();
      const auto t2 = SteadyClock::now();
      if (windows != 0) r.visible_ms.add(ms_between(t0, t2));
      r.snapshot_ms.push_back(ms_between(t1, t2));
    }
    r.poll_ms.push_back(ms_between(t0, t1));
    r.windows += windows;
    ++r.polls;
    since_checkpoint += windows;
    if (since_checkpoint >= every && !runtime.done()) {
      since_checkpoint = 0;
      // The live WAL holds exactly the bytes logged since the last
      // checkpoint; the checkpoint swaps in a fresh one.
      const sto::StorageStats before = runtime.storage()->stats();
      r.wal_bytes += before.wal_bytes;
      const auto c0 = SteadyClock::now();
      auto span = tracer.span("checkpoint", "storage");
      const std::uint64_t flushed = runtime.checkpoint().bytes_written;
      r.checkpoint_ms.push_back(ms_between(c0, SteadyClock::now()));
      r.segment_bytes += segment_bytes_written(
          flushed, before, runtime.storage()->stats());
    }
  }

  // The cold-start copy: after the last window, before the final
  // checkpoint, so recovery replays the WAL tail.
  const sto::StorageStats before = runtime.storage()->stats();
  r.wal_bytes += before.wal_bytes;
  const auto copy_start = SteadyClock::now();
  std::filesystem::copy(dir, copy, std::filesystem::copy_options::recursive);
  const double copy_s = seconds_between(copy_start, SteadyClock::now());

  eng::FleetRunResult run;
  {
    const auto c0 = SteadyClock::now();
    auto span = tracer.span("checkpoint", "storage");
    run = runtime.run_to_completion();
    r.checkpoint_ms.push_back(ms_between(c0, SteadyClock::now()));
  }
  r.ingest_s = seconds_between(t_start, SteadyClock::now()) - copy_s;
  ingest_cpu_s += process_cpu_seconds() - cpu0;
  registry.end();

  r.segment_bytes += segment_bytes_written(run.flush.bytes_written, before,
                                           runtime.storage()->stats());
  r.savings = run.fleet_cost_savings();
  r.nrmse_p95 = nrmse_p95(run);
  const rt::RuntimeStats stats = runtime.stats();
  r.samples_acquired = stats.samples_acquired;
  r.values = stats.values_ingested;

  sto::StorageConfig cold_cfg;
  cold_cfg.dir = copy;
  sto::StorageManager manager(cold_cfg);
  mon::StoreConfig store_cfg = cfg.engine.store;
  if (const auto geometry = manager.manifest_geometry())
    geometry->apply(store_cfg);
  mon::StripedRetentionStore recovered(store_cfg, cfg.engine.store_stripes);
  {
    const auto t0 = SteadyClock::now();
    auto span = tracer.span("recover", "storage");
    r.recovery = manager.recover(recovered);
    r.recover_s = seconds_between(t0, SteadyClock::now());
  }
  result.attempted +=
      r.windows + verify_recovery(runtime.store(), recovered, result);
  return r;
}

}  // namespace

Result run_fleet_ingest(const Options& options, Tracer& tracer) {
  const std::size_t pairs = options.tiny ? 7 * kMixes : 2000;
  Result result;

  // Set-up: build the fleet and warm the runtime, kSetupReps times.
  std::vector<double> setup_s;
  std::optional<scn::BuiltScenario> built;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    built.reset();
    const auto t0 = SteadyClock::now();
    built.emplace(scn::build_scenario(fleet_spec(pairs, options.seed)));
    {
      const std::string dir = options.work_dir + "/fleet_ingest/warmup";
      fresh_dir(dir);
      rt::VirtualClock clock;
      rt::StreamingRuntime warm(built->fleet, clock, runtime_config(dir));
      for (std::size_t beat = 0; beat < kWarmupBeats && !warm.done(); ++beat)
        warm.step();
    }
    setup_s.push_back(seconds_between(t0, SteadyClock::now()));
  }
  const tel::Fleet& fleet = built->fleet;
  result.input_digest = fleet_digest(fleet);

  // Rounds until the measured time is spent; traced runs trace every other
  // round so trace.overhead_frac compares rounds of one run.
  RegistryWindow registry;
  double ingest_cpu_s = 0.0;
  std::vector<RoundStats> rounds;
  const auto t_measure = SteadyClock::now();
  while (rounds.size() < kMinRounds ||
         seconds_between(t_measure, SteadyClock::now()) < options.seconds) {
    const bool traced = options.trace && rounds.size() % 2 == 0;
    tracer.set_active(traced);
    rounds.push_back(
        drive_round(fleet, options, tracer, registry, ingest_cpu_s, result));
    rounds.back().traced = traced;
  }
  tracer.set_active(false);

  const RoundStats& first = rounds.front();
  for (const RoundStats& r : rounds) {
    ++result.attempted;
    if (r.savings != first.savings || r.nrmse_p95 != first.nrmse_p95 ||
        r.wal_bytes != first.wal_bytes ||
        r.segment_bytes != first.segment_bytes || r.values != first.values)
      result.fail(
          "a round's savings/NRMSE/bytes differ from round 1's under one "
          "seed");
  }

  std::vector<double> rates, traced_rates, untraced_rates, poll_ms,
      snapshot_ms, checkpoint_ms, recover_s;
  std::uint64_t windows = 0, polls = 0;
  double ingest_s = 0.0;
  for (const RoundStats& r : rounds) {
    const double rate = static_cast<double>(r.windows) / r.ingest_s;
    rates.push_back(rate);
    (r.traced ? traced_rates : untraced_rates).push_back(rate);
    poll_ms.insert(poll_ms.end(), r.poll_ms.begin(), r.poll_ms.end());
    snapshot_ms.insert(snapshot_ms.end(), r.snapshot_ms.begin(),
                       r.snapshot_ms.end());
    checkpoint_ms.insert(checkpoint_ms.end(), r.checkpoint_ms.begin(),
                         r.checkpoint_ms.end());
    recover_s.push_back(r.recover_s);
    windows += r.windows;
    polls += r.polls;
    ingest_s += r.ingest_s;
  }

  // Every due window of a beat becomes visible at once, so the beats are
  // the independent samples: a percentile needs ten beats beyond it. A p99
  // would need 1000 beats, more than a run makes, so the tail is the p90.
  // The beats come from the rounds whose throughput lies between the
  // quartiles, so a disturbance of the host in a few rounds does not set
  // the tail.
  Distribution visible;
  for (const std::size_t i : middle_half(rates))
    visible.merge(rounds[i].visible_ms);
  const double p50 = visible.require(0.50, "window_visible");
  const double p90 = visible.require(0.90, "window_visible");
  const std::string p50_note = sample_note(visible, 0.50, "beats");
  const std::string p90_note = sample_note(visible, 0.90, "beats");
  const std::string over_rounds =
      "median of " + std::to_string(rounds.size()) + " rounds";
  const auto values = static_cast<double>(first.values);
  const double wal_bpv = static_cast<double>(first.wal_bytes) / values;
  const double segment_bpv =
      static_cast<double>(first.segment_bytes) / values;
  const double ops_per_s = median(rates);
  const double setup = median(setup_s);
  const std::string setups =
      "median of " + std::to_string(kSetupReps) + " set-ups";

  result.end_to_end = {
      {"ops_per_s", "ops/s", ops_per_s, "pair-windows/s, " + over_rounds},
      {"latency_p50_ms", "ms", p50, "window visible, " + p50_note},
      {"latency_p90_ms", "ms", p90, "window visible, " + p90_note},
      {"setup_s", "s", setup, setups},
  };
  result.workload = {
      {"setup_s", "s", setup, "fleet build + runtime warm-up, " + setups},
      {"ingest_windows_per_s", "windows/s", ops_per_s, over_rounds},
      {"window_visible_p50_ms", "ms", p50, p50_note},
      {"window_visible_p90_ms", "ms", p90, p90_note},
      {"recover_s", "s", median(recover_s), over_rounds},
      {"write_bytes_per_value", "B/value", wal_bpv + segment_bpv,
       "WAL + segment (flush and compaction) bytes per ingested value"},
      {"savings_ratio", "ratio", first.savings,
       "baseline / adaptive samples"},
      {"nrmse_p95", "ratio", first.nrmse_p95, "non-degenerate pairs"},
  };

  const double kops = static_cast<double>(windows) / 1000.0;
  add_registry_layers(registry, kops, result);
  auto& layers = result.layers;
  layers["engine.samples_acquired"] =
      static_cast<double>(first.samples_acquired) /
      (static_cast<double>(first.windows) / 1000.0);
  layers["engine.savings_ratio"] = first.savings;
  layers["engine.nrmse_p95"] = first.nrmse_p95;
  layers["runtime.poll_p50_ms"] = median(poll_ms);
  layers["runtime.poll_max_ms"] =
      *std::max_element(poll_ms.begin(), poll_ms.end());
  layers["runtime.polls"] = static_cast<double>(polls) / kops;
  layers["runtime.windows_per_poll"] =
      static_cast<double>(windows) / static_cast<double>(polls);
  layers["runtime.cpu_frac"] =
      ingest_cpu_s / (ingest_s * static_cast<double>(online_cores()));
  layers["store.snapshot_ms"] = median(snapshot_ms);
  layers["storage.checkpoint_p50_ms"] = median(checkpoint_ms);
  layers["storage.checkpoint_max_ms"] =
      *std::max_element(checkpoint_ms.begin(), checkpoint_ms.end());
  layers["storage.checkpoints"] =
      static_cast<double>(checkpoint_ms.size()) / kops;
  layers["storage.wal_bytes_per_value"] = wal_bpv;
  layers["storage.segment_bytes_per_value"] = segment_bpv;
  layers["storage.write_bytes_per_value"] = wal_bpv + segment_bpv;
  layers["storage.recover_s"] = median(recover_s);
  layers["storage.recover_wal_records"] =
      static_cast<double>(first.recovery.wal_records_replayed);
  layers["storage.recover_segments"] =
      static_cast<double>(first.recovery.segments);
  if (!traced_rates.empty() && !untraced_rates.empty())
    layers["trace.overhead_frac"] =
        1.0 - median(traced_rates) / median(untraced_rates);
  return result;
}

}  // namespace perfbench
