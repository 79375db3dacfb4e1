// Fleet query: serve selector queries over retained (Nyquist-rate
// re-sampled) data — the paper's a-posteriori mode, read side.
//
// Usage: fleet_query [persist_dir]
//
// Without arguments: a 400-pair fleet run fans into the striped retention
// store; a QueryEngine over that store then answers fleet-style
// questions against it: average temperature across one rack's devices, p95 CPU across the
// fleet, the rate of change of one counter — each reconstructed on demand
// onto a common grid. The same query issued twice shows the sharded
// result cache at work, and appending fresh data shows generation-counter
// invalidation.
//
// With [persist_dir] (a directory written by `fleet_engine ... <dir>`):
// the cold-start demo. No fleet runs — the durable tier is reopened,
// segments + WAL are recovered into a fresh store, and the same QueryEngine
// serves over it. Reconstructions are bit-identical to what the live run
// would have answered.
#include <algorithm>
#include <cstdio>
#include <string>

#include "engine/engine.h"
#include "query/builder.h"
#include "query/engine.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "storage/manager.h"
#include "telemetry/fleet.h"

using namespace nyqmon;

namespace {

void show(const std::string& note, const qry::QueryResponse& r) {
  std::printf("%s\n", note.c_str());
  std::printf("  matched %zu stream(s), reconstructed %zu, %s\n",
              r.result->matched.size(), r.result->reconstructed.size(),
              r.cache_hit ? "served from cache" : "executed");
  const std::size_t shown = std::min<std::size_t>(r.result->series.size(), 4);
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& s = r.result->series[i];
    if (s.series.empty()) continue;
    std::printf("  %-34s n=%zu  first=%9.4g  last=%9.4g\n", s.label.c_str(),
                s.series.size(), s.series[0], s.series[s.series.size() - 1]);
  }
  if (r.result->series.size() > shown)
    std::printf("  ... (%zu more)\n", r.result->series.size() - shown);
}

// Cold start: reopen a persisted directory and serve queries from it with
// no fleet run in the process. Selectors are derived from the recovered
// stream metadata alone ("pod/device/metric" IDs).
int serve_cold(const std::string& dir) {
  sto::StorageConfig scfg;
  scfg.dir = dir;
  sto::StorageManager manager(scfg);

  // Build the store with the geometry the writer recorded, so WAL replay
  // re-seals chunks on the original boundaries.
  mon::StoreConfig store_cfg = eng::EngineConfig{}.store;
  if (const auto geom = manager.manifest_geometry()) geom->apply(store_cfg);
  mon::StripedRetentionStore store(store_cfg);
  const sto::RecoveryStats rec = manager.recover(store);
  std::printf(
      "recovered %s in %.3fs: %zu segment(s), %zu stream(s), %zu chunk(s), "
      "%zu WAL record(s) replayed",
      dir.c_str(), rec.seconds, rec.segments, rec.streams, rec.chunks,
      rec.wal_records_replayed);
  if (rec.wal_records_truncated > 0)
    std::printf(" [torn WAL tail dropped]");
  if (rec.crc_skipped_blocks > 0)
    std::printf(" [WARNING: %zu corrupt block(s) skipped, %zu chunk(s) lost]",
                rec.crc_skipped_blocks, rec.chunks_missing);
  if (rec.streams_refused > 0)
    std::printf(" [WARNING: %zu stream(s) the store refuses dropped]",
                rec.streams_refused);
  std::printf("\n\n");
  // Gate on the store, not rec.streams: a mid-run kill leaves a WAL-only
  // directory (no segments yet), whose streams exist purely via replay.
  if (store.streams() == 0) {
    std::fprintf(stderr, "nothing to serve in %s\n", dir.c_str());
    return 1;
  }

  qry::QueryEngine qe(store);
  const auto meta = store.list_meta();
  const std::string& first_id = meta.front().first;
  const std::string metric = first_id.substr(first_id.rfind('/') + 1);
  const double t_end = meta.front().second.t_end;

  // One recovered stream, reconstructed on its own (exact selector).
  const qry::QuerySpec one = qry::QueryBuilder()
                                 .select(first_id)
                                 .range(0.0, t_end)
                                 .align(std::max(1.0, t_end / 64.0))
                                 .build();
  show("exact stream from the reopened store:", qe.run(one));

  // Fleet-wide aggregates over every device carrying the same metric.
  const qry::QuerySpec fleet_avg = qry::QueryBuilder()
                                       .select("*/" + metric)
                                       .range(0.0, t_end)
                                       .align(one.step_s)
                                       .aggregate(qry::Aggregation::kAvg)
                                       .build();
  show("\navg(" + fleet_avg.selector + "):", qe.run(fleet_avg));

  qry::QuerySpec fleet_p95 = fleet_avg;
  fleet_p95.aggregate = qry::Aggregation::kP95;
  show("\np95(" + fleet_p95.selector + "):", qe.run(fleet_p95));

  show("\nsame avg query again (cache):", qe.run(fleet_avg));

  const auto stats = qe.stats();
  std::printf(
      "\ncold-serving stats: %llu queries | cache hits %llu | streams "
      "reconstructed %llu, pruned-by-range %llu\n",
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.streams_reconstructed),
      static_cast<unsigned long long>(stats.streams_pruned));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) return serve_cold(argv[1]);

  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = 400;
  fleet_cfg.seed = 1234;
  const tel::Fleet fleet(fleet_cfg);

  rt::RuntimeConfig cfg;
  cfg.engine.workers = 4;
  rt::VirtualClock clock;
  rt::StreamingRuntime runtime(fleet, clock, cfg);
  (void)runtime.run_to_completion();
  std::printf("fleet run complete: %zu streams retained\n\n",
              runtime.store().streams());

  qry::QueryEngine qe(runtime.store());

  // Pod-level aggregate: every temperature stream in one pod ("podX"
  // prefix of the first pod-resident pair), averaged on a 60 s grid.
  std::string pod_prefix = "pod0";
  for (const auto& p : fleet.pairs()) {
    const std::string id = tel::stream_id(p);
    if (id.rfind("pod", 0) == 0) {
      pod_prefix = id.substr(0, id.find('/'));
      break;
    }
  }
  const std::string temp = tel::metric_name(tel::MetricKind::kTemperature);
  const qry::QuerySpec rack = qry::QueryBuilder()
                                  .select(pod_prefix + "/*/" + temp)
                                  .range(0.0, 3600.0)
                                  .align(60.0)
                                  .aggregate(qry::Aggregation::kAvg)
                                  .build();
  show("avg(" + rack.selector + "), 1h @ 60s:", qe.run(rack));

  // Fleet-wide tail: p95 CPU utilization across every device.
  const qry::QuerySpec tail =
      qry::QueryBuilder()
          .select("*/" + tel::metric_name(tel::MetricKind::kCpuUtil5Pct))
          .range(0.0, 1800.0)
          .align(30.0)
          .aggregate(qry::Aggregation::kP95)
          .build();
  show("\np95(" + tail.selector + "), 30min @ 30s:", qe.run(tail));

  // Per-stream view with a transform: z-scored temperature, no aggregate.
  const qry::QuerySpec z = qry::QueryBuilder()
                               .select(rack.selector)
                               .range(0.0, 1800.0)
                               .align(60.0)
                               .transform(qry::Transform::kZScore)
                               .build();
  show("\nz-score per stream (first few):", qe.run(z));

  // Cache: the identical spec again is a hit; fresh ingest into a matched
  // stream bumps its generation and invalidates.
  show("\nsame rack query again:", qe.run(rack));
  const auto warm = qe.run(rack);
  if (!warm.result->reconstructed.empty()) {
    runtime.mutable_store().append_series(
        warm.result->reconstructed.front(), std::vector<double>{42.0});
    show("\nafter appending to one matched stream:", qe.run(rack));
  }

  const auto stats = qe.stats();
  std::printf(
      "\nserving stats: %llu queries | cache hits %llu, misses %llu, "
      "invalidations %llu | streams reconstructed %llu, pruned-by-range "
      "%llu\n",
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.misses),
      static_cast<unsigned long long>(stats.cache.invalidations),
      static_cast<unsigned long long>(stats.streams_reconstructed),
      static_cast<unsigned long long>(stats.streams_pruned));
  return 0;
}
