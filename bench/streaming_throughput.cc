// Streaming runtime throughput: sustained ingest rate and query latency
// under concurrent serving, in-process and over the wire.
//
// Usage: bench_streaming_throughput [pairs] [query_threads] [tcp_clients]
//
// A [pairs]-pair fleet (default 300) replays its full monitoring timeline
// through the StreamingRuntime under a virtual clock — the deadline
// scheduler interleaving every pair's adaptive windows — while two query
// populations hammer the live store:
//
//   * [query_threads] in-process threads (default 2) drive the runtime's
//     QueryEngine with fleet-wide aggregations over the dashboard
//     window — the analytical mix that stresses reconstruction itself.
//   * [tcp_clients] NyqmonClient connections (default 64) issue the
//     interactive operator mix — mostly exact-stream lookups, an
//     occasional broad aggregate — against a multi-reactor NyqmondServer
//     fronting the same store. This is the concurrency the reactor split
//     and the snapshot read path exist for.
//
// Both populations are open-loop: each issues a request on a fixed poll
// period (like real dashboard panels) rather than spinning at maximum
// rate. A closed loop of pairs+clients threads on a small machine
// saturates the run queue and measures scheduler queueing, not the read
// path; the open loop keeps latency honest (a slow reply delays the next
// request, it does not hide behind it).
//
// Reports sustained acquisition/ingest rates plus query latency
// percentiles for both populations, and emits the
// BENCH_streaming_throughput.json line the CI perf gate tracks:
// `query_p99` (gated lower-is-better) is the TCP clients' observed p99 in
// milliseconds, and `concurrent_clients` (gated higher-is-better) is the
// number of TCP clients that ran their full loop without a transport or
// server error.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "query/builder.h"
#include "query/engine.h"
#include "query/spec.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "server/client.h"
#include "server/server.h"
#include "telemetry/fleet.h"
#include "util/ascii.h"

using namespace nyqmon;

namespace {

double percentile(std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_ms.size() - 1));
  return sorted_ms[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t pairs =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 300;
  const std::size_t query_threads =
      argc > 2 ? static_cast<std::size_t>(std::atol(argv[2])) : 2;
  const std::size_t tcp_clients =
      argc > 3 ? static_cast<std::size_t>(std::atol(argv[3])) : 64;

  tel::FleetConfig fleet_cfg;
  fleet_cfg.target_pairs = pairs;
  fleet_cfg.seed = bench::kFleetSeed;
  const tel::Fleet fleet(fleet_cfg);

  rt::VirtualClock clock;
  rt::RuntimeConfig cfg;
  cfg.engine.store.chunk_samples = 128;
  rt::StreamingRuntime runtime(fleet, clock, cfg);

  double span = 0.0;
  for (const auto& p : fleet.pairs()) {
    span = std::max(span, tel::schedule_pair(p, cfg.engine.samples_per_window,
                                             cfg.engine.windows_per_pair)
                              .duration_s);
  }

  // The wire front: a multi-reactor server over the same store the runtime
  // ingests into. In-memory (no durable tier) — this bench measures the
  // serving path, not the WAL.
  srv::ServerConfig server_cfg;
  server_cfg.reactors = 4;
  server_cfg.node_name = "bench";
  srv::NyqmondServer server(runtime.mutable_store(), nullptr, server_cfg);
  server.start();

  // Exact-stream targets for the interactive mix, in store order.
  std::vector<std::string> stream_names;
  for (const auto& m : runtime.store().list_meta())
    stream_names.push_back(m.first);

  // Rotating query mix: broad and narrow selectors, aggregated and raw,
  // so the run exercises cache hits, invalidation under ingest, pruning
  // and multi-stream reconstruction. All readers (in-process and TCP)
  // work a fixed dashboard window at the start of the timeline — panels
  // show a bounded slice, and an unbounded slice would let one reader
  // monopolize the core for hundreds of milliseconds, measuring the
  // scheduler instead of the read path.
  const std::string selectors[] = {"*/Temperature", "*/Link util",
                                   "*/Memory usage", "*"};
  const qry::Aggregation aggs[] = {qry::Aggregation::kP95,
                                   qry::Aggregation::kAvg,
                                   qry::Aggregation::kMax};
  const double qwin = std::min(span, 600.0);
  qry::QueryEngine qe(runtime.store());

  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> latencies_ms(query_threads);
  std::vector<std::thread> readers;
  readers.reserve(query_threads);
  for (std::size_t qt = 0; qt < query_threads; ++qt) {
    readers.emplace_back([&, qt] {
      auto& lat = latencies_ms[qt];
      lat.reserve(1 << 16);
      std::size_t i = qt;
      auto next = std::chrono::steady_clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        const qry::QuerySpec spec =
            qry::QueryBuilder()
                .select(selectors[i % std::size(selectors)])
                .range(0.0, qwin)
                .align(qwin / 256.0)
                .aggregate(aggs[i % std::size(aggs)])
                .build();
        ++i;
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = qe.run(spec);
        const auto t1 = std::chrono::steady_clock::now();
        if (r.result == nullptr) std::abort();
        lat.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
        next += std::chrono::milliseconds(5);
        std::this_thread::sleep_until(next);
      }
    });
  }

  // The TCP population: mostly single-stream lookups over a fixed
  // dashboard window (the operator mix — panels show a bounded slice,
  // not the full retention history), one broad aggregate every 128
  // requests. The window sits at the start of the timeline so it is
  // fully ingested within the first beats of the run. A client counts
  // as "concurrent" only if its whole loop ran clean.
  std::atomic<std::size_t> clients_ok{0};
  std::vector<std::vector<double>> tcp_latencies_ms(tcp_clients);
  std::vector<std::thread> tcp_threads;
  tcp_threads.reserve(tcp_clients);
  const std::uint16_t port = server.port();
  for (std::size_t c = 0; c < tcp_clients; ++c) {
    tcp_threads.emplace_back([&, c] {
      try {
        srv::ClientOptions opts;
        opts.connect_timeout_ms = 5000;
        opts.io_timeout_ms = 30000;
        srv::NyqmonClient client("127.0.0.1", port, opts);
        auto& lat = tcp_latencies_ms[c];
        lat.reserve(1 << 12);
        std::size_t i = c;
        // Fixed poll period, phases staggered across clients so the
        // population does not fire in lockstep bursts. The first few
        // replies per client land during the 64-connection accept storm
        // and the store's first seal burst — warm up past them so the
        // gated p99 reflects steady-state serving.
        const auto period = std::chrono::milliseconds(20);
        auto next = std::chrono::steady_clock::now() + (period * c) / 64;
        std::size_t warmup = 8;
        while (!stop.load(std::memory_order_relaxed)) {
          qry::QueryBuilder builder;
          if (i % 128 == 0) {
            builder.select(selectors[(i / 128) % std::size(selectors)])
                .range(0.0, qwin)
                .align(qwin / 128.0)
                .aggregate(aggs[i % std::size(aggs)]);
          } else {
            builder.select(stream_names[i % stream_names.size()])
                .range(0.0, qwin)
                .align(qwin / 64.0);
          }
          ++i;
          const auto t0 = std::chrono::steady_clock::now();
          const srv::QueryReply reply = client.query(builder.build());
          const auto t1 = std::chrono::steady_clock::now();
          if (reply.reconstructed > reply.matched) std::abort();
          if (warmup > 0) {
            --warmup;
          } else {
            lat.push_back(
                std::chrono::duration<double, std::milli>(t1 - t0).count());
          }
          next += period;
          std::this_thread::sleep_until(next);
        }
        clients_ok.fetch_add(1);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "tcp client %zu failed: %s\n", c, e.what());
      }
    });
  }

  const auto t_start = std::chrono::steady_clock::now();
  while (!runtime.done()) runtime.step();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t_start)
                          .count();
  stop.store(true);
  for (auto& t : readers) t.join();
  for (auto& t : tcp_threads) t.join();
  server.stop();

  const rt::RuntimeStats stats = runtime.stats();
  std::vector<double> all_ms;
  for (const auto& lat : latencies_ms)
    all_ms.insert(all_ms.end(), lat.begin(), lat.end());
  std::sort(all_ms.begin(), all_ms.end());
  const double p50 = percentile(all_ms, 0.50);
  const double p99 = percentile(all_ms, 0.99);

  std::vector<double> tcp_ms;
  for (const auto& lat : tcp_latencies_ms)
    tcp_ms.insert(tcp_ms.end(), lat.begin(), lat.end());
  std::sort(tcp_ms.begin(), tcp_ms.end());
  const double tcp_p50 = percentile(tcp_ms, 0.50);
  const double tcp_p99 = percentile(tcp_ms, 0.99);

  const double samples_per_sec =
      static_cast<double>(stats.samples_acquired) / wall;
  const double values_per_sec =
      static_cast<double>(stats.values_ingested) / wall;
  const double qps = static_cast<double>(all_ms.size()) / wall;
  const double tcp_qps = static_cast<double>(tcp_ms.size()) / wall;

  // The obs layer's log2-bucketed histogram covers *every* QueryEngine
  // run in the process — the heavy in-process mix and the server-side
  // queries alike — the same source METRICS exposes on a live nyqmond.
  const obs::HistogramSnapshot query_hist =
      obs::Registry::instance().histogram_snapshot("nyqmon_query_latency_ns");
  const double obs_p99_ms = query_hist.quantile(0.99) / 1e6;

  AsciiTable table({"metric", "value"});
  table.row({"pairs", std::to_string(fleet.size())});
  table.row({"timeline (virtual s)", AsciiTable::format_double(span)});
  table.row({"wall (s)", AsciiTable::format_double(wall)});
  table.row({"windows processed", std::to_string(stats.windows_processed)});
  table.row({"samples acquired/s", AsciiTable::format_double(samples_per_sec)});
  table.row({"values ingested/s", AsciiTable::format_double(values_per_sec)});
  table.row({"in-process queries", std::to_string(all_ms.size())});
  table.row({"in-process p50 (ms)", AsciiTable::format_double(p50)});
  table.row({"in-process p99 (ms)", AsciiTable::format_double(p99)});
  table.row({"tcp clients ok",
             std::to_string(clients_ok.load()) + "/" +
                 std::to_string(tcp_clients)});
  table.row({"tcp queries", std::to_string(tcp_ms.size())});
  table.row({"tcp qps", AsciiTable::format_double(tcp_qps)});
  table.row({"tcp p50 (ms)", AsciiTable::format_double(tcp_p50)});
  table.row({"tcp p99 (ms)", AsciiTable::format_double(tcp_p99)});
  table.row({"query p99, obs histogram (ms)",
             AsciiTable::format_double(obs_p99_ms)});
  std::printf("%s\n", table.render().c_str());

  std::string json = "{\"bench\":\"streaming_throughput\"";
  bench::json_append(json, "\"pairs\":%zu", fleet.size());
  bench::json_append(json, "\"query_threads\":%zu", query_threads);
  bench::json_append(json, "\"wall_s\":%.3f", wall);
  bench::json_append(json, "\"samples_per_sec\":%.1f", samples_per_sec);
  bench::json_append(json, "\"values_per_sec\":%.1f", values_per_sec);
  bench::json_append(json, "\"queries\":%zu", all_ms.size());
  bench::json_append(json, "\"qps\":%.1f", qps);
  bench::json_append(json, "\"query_p50_ms\":%.3f", p50);
  bench::json_append(json, "\"query_p99_ms\":%.3f", p99);
  bench::json_append(json, "\"tcp_queries\":%zu", tcp_ms.size());
  bench::json_append(json, "\"tcp_qps\":%.1f", tcp_qps);
  bench::json_append(json, "\"tcp_query_p50_ms\":%.3f", tcp_p50);
  // Gated (lower-is-better) by bench/check_regression.py: the latency an
  // operator's client actually observes against the multi-reactor server
  // under full live ingest.
  bench::json_append(json, "\"query_p99\":%.3f", tcp_p99);
  // Gated (higher-is-better): clients that completed without an error.
  bench::json_append(json, "\"concurrent_clients\":%zu", clients_ok.load());
  bench::json_append(json, "\"query_p99_obs_ms\":%.3f", obs_p99_ms);
  json += "}";
  bench::write_json_line("streaming_throughput", json);
  return 0;
}
