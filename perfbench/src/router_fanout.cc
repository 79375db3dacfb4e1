// router_fanout — fleet fan-out (ROADMAP path (b)).
//
// A NyqmonRouter in front of kBackends in-memory nyqmond backends; the
// population is ingested through the router at set-up, so the consistent-
// hash ring does the sharding. Up to four closed-loop connections then
// repeat one fixed spec set (exact streams, metric globs, a rack prefix,
// the whole fleet; rotating transforms and aggregations), each from its
// own offset, like bench/fleet_scatter.cc. Nothing is written during the
// run, so backend caches answer most scatters: cluster scatter/merge,
// server framing and cache hits dominate, and storage and engine do no
// work.
//
// Checks: a fixed sample of replies (every kCheckEvery-th per connection)
// must equal an in-process QueryEngine over one store holding the whole
// population — the 1-vs-N-node guarantee.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "fixtures.h"
#include "harness.h"
#include "query/builder.h"
#include "query/engine.h"
#include "server/client.h"
#include "server/server.h"

namespace perfbench {

namespace {

using namespace nyqmon;

constexpr std::size_t kSetupReps = 7;
constexpr std::size_t kBackends = 4;
constexpr std::uint64_t kCheckEvery = 16;
/// Traced runs ask for EXPLAIN on every kExplainEvery-th query.
constexpr std::uint64_t kExplainEvery = 8;

struct Sizes {
  std::size_t streams;
  std::size_t values;  ///< per stream, ingested at set-up
  std::size_t batch;
};

Sizes sizes(const Options& options) {
  return options.tiny ? Sizes{16, 256, 64} : Sizes{96, 1024, 256};
}

/// The backends and the router in front of them. Members die in reverse
/// order: the router, then the servers, then their stores.
struct Fleet {
  std::vector<std::unique_ptr<mon::StripedRetentionStore>> stores;
  std::vector<std::unique_ptr<srv::NyqmondServer>> backends;
  std::unique_ptr<clu::NyqmonRouter> router;

  ~Fleet() {
    if (router != nullptr) router->stop();
    for (auto& backend : backends) backend->stop();
  }
};

std::unique_ptr<Fleet> start_fleet(const Population& pop, const Sizes& z) {
  auto fleet = std::make_unique<Fleet>();
  clu::RouterConfig cfg;
  cfg.cluster.connect_timeout_ms = 5000;
  cfg.cluster.io_timeout_ms = 30000;
  for (std::size_t i = 0; i < kBackends; ++i) {
    fleet->stores.push_back(
        std::make_unique<mon::StripedRetentionStore>(store_config()));
    srv::ServerConfig backend;
    backend.node_name = "node" + std::to_string(i);
    fleet->backends.push_back(std::make_unique<srv::NyqmondServer>(
        *fleet->stores.back(), nullptr, backend));
    fleet->backends.back()->start();
    cfg.cluster.nodes.push_back(
        {backend.node_name, "127.0.0.1", fleet->backends.back()->port()});
  }
  fleet->router = std::make_unique<clu::NyqmonRouter>(cfg);
  fleet->router->start();

  srv::NyqmonClient client("127.0.0.1", fleet->router->port(),
                           client_options());
  std::vector<double> values;
  for (std::size_t s = 0; s < pop.size(); ++s) {
    for (std::uint64_t first = 0; first < z.values; first += z.batch) {
      values.resize(std::min<std::uint64_t>(z.batch, z.values - first));
      pop.fill(s, first, values);
      client.ingest(pop.name(s), pop.rate_hz(s), 0.0, values);
    }
  }
  return fleet;
}

/// The fixed spec set: four exact streams (one per metric kind), two
/// metric globs, a rack prefix and the whole fleet, each at three offsets.
std::vector<qry::QuerySpec> spec_set(const Population& pop) {
  std::vector<std::string> selectors;
  for (std::size_t i = 0; i < 4; ++i)
    selectors.push_back(pop.name(i * (pop.size() / 4) + i));
  for (const char* glob : {"*/cpu", "*/drops", "rack0-*", "*"})
    selectors.emplace_back(glob);

  const qry::Transform transforms[] = {qry::Transform::kRaw,
                                       qry::Transform::kRate,
                                       qry::Transform::kZScore};
  const qry::Aggregation aggs[] = {qry::Aggregation::kAvg,
                                   qry::Aggregation::kP95,
                                   qry::Aggregation::kMax};
  std::vector<qry::QuerySpec> specs;
  std::size_t v = 0;
  for (const std::string& selector : selectors) {
    for (const double offset : {0.0, 40.0, 80.0}) {
      specs.push_back(qry::QueryBuilder()
                          .select(selector)
                          .range(offset, offset + 120.0)
                          .align(2.0)
                          .transform(transforms[v % 3])
                          .aggregate(aggs[(v / 3) % 3])
                          .build());
      ++v;
    }
  }
  return specs;
}

struct ClientOut {
  Result checks;
  /// Query latencies by the slice each query started in.
  std::vector<Distribution> latency_ms;
  std::uint64_t explained = 0;
  double scatter_ms = 0.0;
  double merge_ms = 0.0;
  double slowest_backend_ms = 0.0;
};

void query_loop(std::size_t offset, srv::NyqmonClient& client,
                const std::vector<qry::QuerySpec>& specs,
                const std::vector<std::shared_ptr<const qry::QueryResult>>&
                    expected,
                Tracer& tracer, const Slicer& slicer,
                const std::atomic<bool>& stop, ClientOut& out) {
  for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const std::size_t which = (offset + i) % specs.size();
    const std::size_t slice = slicer.current();
    const bool explain = tracer.active() && i % kExplainEvery == 0;
    const auto t0 = SteadyClock::now();
    srv::QueryReply reply;
    {
      auto span = tracer.span("QUERY", "cluster", tracer.next_request_id());
      reply = client.query(specs[which], false, explain);
    }
    if (slice >= out.latency_ms.size()) out.latency_ms.resize(slice + 1);
    out.latency_ms[slice].add(ms_between(t0, SteadyClock::now()));
    ++out.checks.attempted;
    if (i % kCheckEvery == 0 && !same_answer(reply, *expected[which]))
      out.checks.fail("QUERY " + specs[which].selector +
                      " through the router differs from the single-store "
                      "reference");
    if (reply.explain.has_value()) {
      ++out.explained;
      double slowest = 0.0;
      for (const srv::ExplainEntry& stage : reply.explain->stages) {
        const double ms = static_cast<double>(stage.ns) / 1e6;
        if (stage.stage == "scatter") {
          out.scatter_ms += ms;
        } else if (stage.stage == "merge") {
          out.merge_ms += ms;
        } else if (stage.stage.rfind("backend/", 0) == 0) {
          slowest = std::max(slowest, ms);
        }
      }
      out.slowest_backend_ms += slowest;
    }
  }
}

}  // namespace

Result run_router_fanout(const Options& options, Tracer& tracer) {
  const Sizes z = sizes(options);
  const Population pop(options.seed, z.streams);
  const std::vector<qry::QuerySpec> specs = spec_set(pop);
  const std::size_t clients = std::min<std::size_t>(4, online_cores());
  Result result;
  result.input_digest = pop.digest(z.values);

  // Set-up: backends, router, ingest through the ring, one warm-up pass
  // over the spec set, kSetupReps times.
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    const auto t0 = SteadyClock::now();
    fleet = start_fleet(pop, z);
    srv::NyqmonClient client("127.0.0.1", fleet->router->port(),
                             client_options());
    for (const qry::QuerySpec& spec : specs) client.query(spec);
    setup_s.push_back(seconds_between(t0, SteadyClock::now()));
  }

  // The single-store reference answers.
  mon::StripedRetentionStore reference(store_config());
  pop.preload(reference, z.values, z.batch);
  qry::QueryEngine engine(reference);
  std::vector<std::shared_ptr<const qry::QueryResult>> expected;
  for (const qry::QuerySpec& spec : specs)
    expected.push_back(engine.run(spec).result);

  std::vector<std::unique_ptr<srv::NyqmonClient>> conns;
  for (std::size_t c = 0; c < clients; ++c)
    conns.push_back(std::make_unique<srv::NyqmonClient>(
        "127.0.0.1", fleet->router->port(), client_options()));

  RegistryWindow registry;
  registry.begin();
  std::atomic<bool> stop{false};
  std::vector<ClientOut> outs(clients);
  Slicer slicer(tracer, options.trace);
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        guarded(outs[c].checks, "router connection", [&] {
          query_loop(c * specs.size() / clients, *conns[c], specs, expected,
                     tracer, slicer, stop, outs[c]);
        });
      });
    }
    slicer.run_until(SteadyClock::now() +
                     std::chrono::duration_cast<SteadyClock::duration>(
                         std::chrono::duration<double>(options.seconds)));
    stop.store(true);
    for (std::thread& t : threads) t.join();
  }
  registry.end();

  // Queries that started after the last slice closed are checked but not
  // timed.
  const std::vector<double>& slice_s = slicer.seconds();
  std::vector<Distribution> by_slice(slice_s.size());
  ClientOut sum;
  for (const ClientOut& out : outs) {
    result.absorb(out.checks);
    for (std::size_t s = 0; s < std::min(by_slice.size(), out.latency_ms.size());
         ++s)
      by_slice[s].merge(out.latency_ms[s]);
    sum.explained += out.explained;
    sum.scatter_ms += out.scatter_ms;
    sum.merge_ms += out.merge_ms;
    sum.slowest_backend_ms += out.slowest_backend_ms;
  }
  std::vector<double> rates, traced_rates, untraced_rates;
  double queries = 0.0;
  for (std::size_t s = 0; s < by_slice.size(); ++s) {
    const auto n = static_cast<double>(by_slice[s].count());
    rates.push_back(n / slice_s[s]);
    (slicer.traced(s) ? traced_rates : untraced_rates).push_back(rates.back());
    queries += n;
  }
  // Latency over the slices whose throughput lies between the quartiles,
  // so a disturbance of the host in a few slices does not set the tail.
  Distribution latency;
  for (const std::size_t s : middle_half(rates)) latency.merge(by_slice[s]);
  const double qps = median(rates);
  const double p50 = latency.require(0.50, "query latency");
  const double p90 = latency.require(0.90, "query latency");
  const double p99 = latency.require(0.99, "query latency");
  const double setup = median(setup_s);
  const std::string setups =
      "median of " + std::to_string(kSetupReps) + " set-ups";
  const std::string what =
      "queries on " + std::to_string(clients) +
      " closed-loop connections in the middle half of " +
      std::to_string(rates.size()) + " slices";
  const std::string over_slices =
      "median of " + std::to_string(rates.size()) + " half-second slices";

  result.end_to_end = {
      {"ops_per_s", "ops/s", qps, "queries/s, " + over_slices},
      {"latency_p50_ms", "ms", p50, sample_note(latency, 0.50, what)},
      {"latency_p90_ms", "ms", p90, sample_note(latency, 0.90, what)},
      {"setup_s", "s", setup, setups},
  };
  result.workload = {
      {"setup_s", "s", setup,
       "backends + router + ingest + warm-up, " + setups},
      {"query_qps", "qps", qps, over_slices},
      {"query_p50_ms", "ms", p50, sample_note(latency, 0.50, what)},
      {"query_p90_ms", "ms", p90, sample_note(latency, 0.90, what)},
      {"query_p99_ms", "ms", p99, sample_note(latency, 0.99, what)},
  };

  add_registry_layers(registry, queries / 1000.0, result);
  auto& layers = result.layers;
  if (sum.explained != 0) {
    const auto n = static_cast<double>(sum.explained);
    layers["cluster.scatter_ms"] = sum.scatter_ms / n;
    layers["cluster.merge_ms"] = sum.merge_ms / n;
    layers["cluster.backend_wait_ms"] = sum.slowest_backend_ms / n;
  }
  if (!traced_rates.empty() && !untraced_rates.empty())
    layers["trace.overhead_frac"] =
        1.0 - median(traced_rates) / median(untraced_rates);
  return result;
}

}  // namespace perfbench
