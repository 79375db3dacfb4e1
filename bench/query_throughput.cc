// Serving throughput of the query engine: QPS for a mixed selector
// workload at 1/2/4/8 client threads, against a concurrently-ingesting
// writer.
//
// Usage: query_throughput [pairs] [queries_per_thread]
//        (defaults: 500 pairs, 400 queries per client thread; CI smokes it
//        with a tiny workload, see .github/workflows/ci.yml)
//
// Setup: each client-thread count gets its own virtual-clock fleet run
// (the run is deterministic, so every row serves identical store contents
// — a shared store would let the writer's appends accumulate across rows
// and skew the comparison) and a fresh cold-cache QueryEngine over that
// run's store. Clients claim queries from a shared deterministic workload
// — exact streams, per-metric globs, device-prefix globs and fleet-wide
// selectors, across several windows/transforms/aggregations — while a
// writer thread keeps appending to its own stream, so fleet-wide selectors
// keep invalidating and narrower ones keep hitting. Per-query
// reconstruction fan-out is pinned to 1 worker: the scaling under test is
// client concurrency, not nested parallelism.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "query/builder.h"
#include "query/engine.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "util/ascii.h"
#include "util/csv.h"

namespace {

using namespace nyqmon;

const char* kWriterStream = "zz-writer/synthetic";

std::vector<qry::QuerySpec> build_workload(
    const std::vector<std::string>& names) {
  // Selector mix: exact streams, per-metric globs (suffix after '/'),
  // device-prefix globs, and the whole fleet.
  std::vector<std::string> selectors;
  for (std::size_t i = 0; i < names.size() && selectors.size() < 4;
       i += names.size() / 4 + 1)
    selectors.push_back(names[i]);  // exact
  for (std::size_t i = 0; i < names.size() && selectors.size() < 8; ++i) {
    const auto slash = names[i].rfind('/');
    if (slash == std::string::npos) continue;
    std::string glob = "*";
    glob += names[i].substr(slash);
    if (std::find(selectors.begin(), selectors.end(), glob) ==
        selectors.end())
      selectors.push_back(glob);  // per-metric
  }
  if (!names.empty())
    selectors.push_back(names.front().substr(0, 4) + "*");  // device prefix
  selectors.push_back("*");                                 // fleet-wide

  const qry::Transform transforms[] = {qry::Transform::kRaw,
                                       qry::Transform::kRate,
                                       qry::Transform::kZScore};
  const qry::Aggregation aggs[] = {qry::Aggregation::kAvg,
                                   qry::Aggregation::kP95,
                                   qry::Aggregation::kMax};
  std::vector<qry::QuerySpec> workload;
  std::size_t v = 0;
  for (const auto& sel : selectors) {
    for (const double offset : {0.0, 40.0, 80.0}) {
      workload.push_back(qry::QueryBuilder()
                             .select(sel)
                             .range(offset, offset + 120.0)
                             .align(2.0)
                             .transform(transforms[v % 3])
                             .aggregate(aggs[(v / 3) % 3])
                             .build());
      ++v;
    }
  }
  return workload;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t pairs =
      argc > 1 ? static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10))
               : 500;
  const std::size_t queries_per_thread =
      argc > 2 ? static_cast<std::size_t>(std::strtoull(argv[2], nullptr, 10))
               : 400;
  if (pairs == 0 || queries_per_thread == 0) {
    std::fprintf(stderr, "usage: %s [pairs] [queries_per_thread]\n", argv[0]);
    return 2;
  }

  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = pairs;
  fleet_cfg.seed = bench::kFleetSeed;
  const tel::Fleet fleet(fleet_cfg);

  rt::RuntimeConfig cfg;
  cfg.engine.samples_per_window = 48;
  cfg.engine.windows_per_pair = 4;
  qry::QueryEngineConfig query_cfg;
  query_cfg.workers = 1;  // per-query fan-out off: measure client concurrency

  // Workload selectors come from the (deterministic) stream population;
  // derive them from a throwaway run so every row sees the same specs.
  std::vector<qry::QuerySpec> workload;
  {
    rt::VirtualClock clock;
    rt::StreamingRuntime seed_run(fleet, clock, cfg);
    const auto run = seed_run.run_to_completion();
    std::printf(
        "fleet: %zu pairs ingested in %.2fs; store holds %zu streams\n",
        fleet.size(), run.wall_seconds, seed_run.store().streams());
    workload = build_workload(seed_run.store().stream_names());
  }
  std::printf("workload: %zu distinct specs\n\n", workload.size());

  AsciiTable table({"threads", "queries", "wall_s", "qps", "hit_rate",
                    "reconstructed", "pruned"});
  CsvWriter csv(bench::csv_path("query_throughput"),
                {"threads", "queries", "wall_s", "qps", "hit_rate"});
  std::string json_threads, json_qps, json_hits;

  for (const std::size_t threads : {1, 2, 4, 8}) {
    // Fresh runtime + store per row: identical contents for every thread
    // count, no writer-data carry-over from earlier rows.
    rt::VirtualClock clock;
    rt::StreamingRuntime runtime(fleet, clock, cfg);
    (void)runtime.run_to_completion();
    runtime.mutable_store().create_stream(kWriterStream, 1.0);
    qry::QueryEngine qe(runtime.store(), query_cfg);

    const std::size_t total = threads * queries_per_thread;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      std::vector<double> batch(64);
      double t = 0.0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (double& x : batch) x = std::sin(0.05 * (t += 1.0));
        runtime.mutable_store().append_series(kWriterStream, batch);
        std::this_thread::yield();
      }
    });

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(threads);
    for (std::size_t c = 0; c < threads; ++c)
      clients.emplace_back([&] {
        while (true) {
          const std::size_t i = next.fetch_add(1);
          if (i >= total) break;
          (void)qe.run(workload[i % workload.size()]);
        }
      });
    for (auto& c : clients) c.join();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    stop.store(true);
    writer.join();

    const auto stats = qe.stats();
    const double qps = static_cast<double>(total) / wall;
    table.row({std::to_string(threads), std::to_string(total),
               AsciiTable::format_double(wall), AsciiTable::format_double(qps),
               AsciiTable::format_double(stats.cache.hit_rate()),
               std::to_string(stats.streams_reconstructed),
               std::to_string(stats.streams_pruned)});
    csv.row_numeric({static_cast<double>(threads),
                     static_cast<double>(total), wall, qps,
                     stats.cache.hit_rate()});
    bench::json_append(json_threads, "%zu", threads);
    bench::json_append(json_qps, "%.1f", qps);
    bench::json_append(json_hits, "%.3f", stats.cache.hit_rate());
  }

  std::printf("%s\n", table.render().c_str());
  bench::write_json_line(
      "query_throughput",
      "{\"bench\":\"query_throughput\",\"pairs\":" +
          std::to_string(fleet.size()) +
          ",\"queries_per_thread\":" + std::to_string(queries_per_thread) +
          ",\"threads\":[" + json_threads + "],\"qps\":[" + json_qps +
          "],\"cache_hit_rate\":[" + json_hits + "]}");
  return 0;
}
