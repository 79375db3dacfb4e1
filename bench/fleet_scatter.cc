// Scatter-gather throughput of the cluster router: QPS and fan-out
// latency (p50/p99) through a NyqmonRouter fronting 1/2/4 in-process
// nyqmond backends holding the same sharded stream population.
//
// Usage: fleet_scatter [streams] [queries]
//        (defaults: 96 streams, 2000 queries; CI smokes it with 24/400,
//        see CMakeLists.txt)
//
// Setup: each backend count gets a fresh fleet — N empty nyqmond servers
// on ephemeral ports behind a fresh router — and the same deterministic
// stream population is ingested through the router (so the consistent-hash
// ring does the sharding). One client connection then drives a mixed
// selector workload (exact streams, device globs, metric globs, fleet-wide)
// across transforms and aggregations; a glob scatters to all N backends and
// merges centrally, and an exact stream asks its ring owner alone, so the
// row-to-row comparison isolates the fan-out cost. Latencies are measured
// per query at the client.
//
// The same connection then sends as many exact queries for names that no
// backend holds. The owner answers with no series and the router then asks
// every other node, so above one backend each costs two scatter rounds in
// series. Their p50/p99 are printed beside the mix's (absent_p50_ms,
// absent_p99_ms) and stay out of router_qps, the figure the regression
// gate compares.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "common.h"
#include "monitor/striped_store.h"
#include "query/builder.h"
#include "server/client.h"
#include "server/server.h"
#include "util/ascii.h"
#include "util/csv.h"

namespace {

using namespace nyqmon;

std::vector<std::string> make_stream_names(std::size_t n) {
  static const char* kMetrics[] = {"cpu_util", "if_drops", "mem_rss"};
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    names.push_back("dev" + std::to_string(i / 3) + "/" + kMetrics[i % 3]);
  return names;
}

std::vector<qry::QuerySpec> build_workload(
    const std::vector<std::string>& names) {
  std::vector<std::string> selectors;
  for (std::size_t i = 0; i < names.size() && selectors.size() < 4;
       i += names.size() / 4 + 1)
    selectors.push_back(names[i]);              // exact
  selectors.push_back("*/cpu_util");            // per-metric
  selectors.push_back("*/if_drops");
  selectors.push_back("dev1*");                 // device prefix
  selectors.push_back("*");                     // fleet-wide

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

/// Exact selectors for streams no backend holds, spread over the ring.
std::vector<qry::QuerySpec> build_absent_workload() {
  std::vector<qry::QuerySpec> workload;
  for (std::size_t i = 0; i < 8; ++i)
    workload.push_back(qry::QueryBuilder()
                           .select(std::string("absent")
                                       .append(std::to_string(i))
                                       .append("/cpu_util"))
                           .range(0.0, 120.0)
                           .align(2.0)
                           .build());
  return workload;
}

/// Sends `n` queries cycling through `specs`, one at a time, and returns
/// their latencies in ms.
std::vector<double> time_queries(srv::NyqmonClient& client,
                                 const std::vector<qry::QuerySpec>& specs,
                                 std::size_t n) {
  std::vector<double> latencies_ms;
  latencies_ms.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto q0 = std::chrono::steady_clock::now();
    (void)client.query(specs[i % specs.size()]);
    latencies_ms.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - q0)
                               .count());
  }
  return latencies_ms;
}

double quantile_ms(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0.0;
  const std::size_t i = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(i, sorted_ms.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t streams =
      argc > 1 ? static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10))
               : 96;
  const std::size_t queries =
      argc > 2 ? static_cast<std::size_t>(std::strtoull(argv[2], nullptr, 10))
               : 2000;
  if (streams == 0 || queries == 0) {
    std::fprintf(stderr, "usage: %s [streams] [queries]\n", argv[0]);
    return 2;
  }

  const std::vector<std::string> names = make_stream_names(streams);
  const std::vector<qry::QuerySpec> workload = build_workload(names);
  const std::vector<qry::QuerySpec> absent = build_absent_workload();
  std::printf("fleet_scatter: %zu streams, %zu queries, %zu distinct specs\n\n",
              streams, queries, workload.size());

  AsciiTable table({"backends", "streams", "queries", "wall_s", "router_qps",
                    "p50_ms", "p99_ms", "absent_p50_ms", "absent_p99_ms"});
  CsvWriter csv(bench::csv_path("fleet_scatter"),
                {"backends", "streams", "queries", "wall_s", "router_qps",
                 "p50_ms", "p99_ms", "absent_p50_ms", "absent_p99_ms"});
  std::string json_backends, json_qps, json_p99;

  for (const std::size_t backends : {1, 2, 4}) {
    // Fresh fleet per row: N empty backends behind a fresh router, the
    // population re-sharded by the ring.
    std::vector<std::unique_ptr<mon::StripedRetentionStore>> stores;
    std::vector<std::unique_ptr<srv::NyqmondServer>> servers;
    clu::RouterConfig cfg;
    for (std::size_t i = 0; i < backends; ++i) {
      stores.push_back(std::make_unique<mon::StripedRetentionStore>());
      servers.push_back(std::make_unique<srv::NyqmondServer>(
          *stores.back(), nullptr, srv::ServerConfig{}));
      servers.back()->start();
      cfg.cluster.nodes.push_back({"node" + std::to_string(i), "127.0.0.1",
                                   servers.back()->port()});
    }
    clu::NyqmonRouter router(cfg);
    router.start();

    srv::NyqmonClient client("127.0.0.1", router.port());
    std::vector<double> values(512);
    for (std::size_t s = 0; s < names.size(); ++s) {
      for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = std::sin(0.3 * static_cast<double>(s) +
                             0.05 * static_cast<double>(i));
      client.ingest(names[s], 2.0, 0.0, values);
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<double> latencies_ms = time_queries(client, workload, queries);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::vector<double> absent_ms = time_queries(client, absent, queries);
    router.stop();
    for (auto& server : servers) server->stop();

    std::sort(latencies_ms.begin(), latencies_ms.end());
    std::sort(absent_ms.begin(), absent_ms.end());
    const double qps = static_cast<double>(queries) / wall;
    const double p50 = quantile_ms(latencies_ms, 0.50);
    const double p99 = quantile_ms(latencies_ms, 0.99);
    const double absent_p50 = quantile_ms(absent_ms, 0.50);
    const double absent_p99 = quantile_ms(absent_ms, 0.99);
    table.row({std::to_string(backends), std::to_string(streams),
               std::to_string(queries), AsciiTable::format_double(wall),
               AsciiTable::format_double(qps), AsciiTable::format_double(p50),
               AsciiTable::format_double(p99),
               AsciiTable::format_double(absent_p50),
               AsciiTable::format_double(absent_p99)});
    csv.row_numeric({static_cast<double>(backends),
                     static_cast<double>(streams),
                     static_cast<double>(queries), wall, qps, p50, p99,
                     absent_p50, absent_p99});
    bench::json_append(json_backends, "%zu", backends);
    bench::json_append(json_qps, "%.1f", qps);
    bench::json_append(json_p99, "%.3f", p99);
  }

  std::printf("%s\n", table.render().c_str());
  bench::write_json_line(
      "fleet_scatter",
      "{\"bench\":\"fleet_scatter\",\"streams\":" + std::to_string(streams) +
          ",\"queries\":" + std::to_string(queries) + ",\"backends\":[" +
          json_backends + "],\"router_qps\":[" + json_qps +
          "],\"fanout_p99_ms\":[" + json_p99 + "]}");
  return 0;
}
