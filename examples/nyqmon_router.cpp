// nyqmon_router — scatter-gather front for a sharded nyqmond fleet.
//
// Usage: nyqmon_router <port> <vnodes> <host:port> [host:port ...]
//        nyqmon_router <port> <vnodes> --spawn <n_backends> [serve_seconds]
//
// The first form fronts already-running nyqmond backends: clients speak
// the ordinary nyqmond protocol to <port> (0 = ephemeral) and the router
// routes INGEST, and QUERY for one named stream, to each stream's
// consistent-hash owner while scattering glob QUERY/STATS/CHECKPOINT across
// every backend, merging per-stream results with the query engine's own
// reduction so the fleet answers bit-identically to one big nyqmond. A
// failed or timed-out backend that a request asked turns the reply into
// ERR-with-detail (which nodes failed and why) instead of a silent partial
// answer.
//
// The router runs one front reactor per online core, the server default
// that every backend takes too, so it handles that many requests at once;
// the startup line prints the count, and `nyqmon_ctl stats` reports it as
// router.reactors and each backend's as its `reactors`.
//
// The second form is a self-contained demo: it spawns <n_backends> empty
// in-process nyqmond servers on ephemeral ports, fronts them, prints the
// ring description, and serves for [serve_seconds] (default 60). Try:
//
//   nyqmon_router 7412 64 --spawn 4 600 &
//   nyqmon_ctl 127.0.0.1 7412 ingest lab/sensor 1.0 0 1.5,1.7,2.1,2.4
//   nyqmon_ctl 127.0.0.1 7412 query 'lab/*' 0 4 1
//   nyqmon_ctl 127.0.0.1 7412 stats
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "monitor/striped_store.h"
#include "obs/trace.h"
#include "server/server.h"

using namespace nyqmon;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nyqmon_router <port> <vnodes> <host:port> "
               "[host:port ...]\n"
               "       nyqmon_router <port> <vnodes> --spawn <n_backends> "
               "[serve_seconds]\n");
  return 2;
}

bool parse_endpoint(const std::string& arg, clu::NodeDesc& out) {
  const std::size_t colon = arg.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= arg.size())
    return false;
  out.host = arg.substr(0, colon);
  out.port = static_cast<std::uint16_t>(std::atoi(arg.c_str() + colon + 1));
  return out.port != 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto port = static_cast<std::uint16_t>(std::atoi(argv[1]));
  const auto vnodes = static_cast<std::size_t>(std::atoi(argv[2]));
  if (vnodes == 0) return usage();

  // In-process demo backends (--spawn): empty stores on ephemeral ports.
  std::vector<std::unique_ptr<mon::StripedRetentionStore>> stores;
  std::vector<std::unique_ptr<srv::NyqmondServer>> backends;
  double serve_seconds = 0.0;

  clu::RouterConfig cfg;
  cfg.port = port;
  cfg.cluster.vnodes = vnodes;
  if (std::string(argv[3]) == "--spawn") {
    if (argc < 5) return usage();
    const int n = std::atoi(argv[4]);
    if (n < 1) return usage();
    serve_seconds = argc > 5 ? std::atof(argv[5]) : 60.0;
    for (int i = 0; i < n; ++i) {
      stores.push_back(std::make_unique<mon::StripedRetentionStore>());
      srv::ServerConfig backend_cfg;
      backend_cfg.node_name = "node" + std::to_string(i);
      backends.push_back(std::make_unique<srv::NyqmondServer>(
          *stores.back(), nullptr, backend_cfg));
      backends.back()->start();
      cfg.cluster.nodes.push_back({"node" + std::to_string(i), "127.0.0.1",
                                   backends.back()->port()});
    }
  } else {
    for (int i = 3; i < argc; ++i) {
      clu::NodeDesc node;
      node.id = "node" + std::to_string(i - 3);
      if (!parse_endpoint(argv[i], node)) {
        std::fprintf(stderr, "bad endpoint: %s\n", argv[i]);
        return usage();
      }
      cfg.cluster.nodes.push_back(std::move(node));
    }
  }

  // Arm trace capture so `nyqmon_ctl trace --fleet` stitches a live
  // timeline; in --spawn mode the in-process backends share this recorder.
  obs::TraceRecorder::instance().set_enabled(true);

  try {
    clu::NyqmonRouter router(cfg);
    router.start();
    std::printf("nyqmon_router: listening on 127.0.0.1:%u, %zu backend(s), "
                "%zu reactor(s)\n",
                router.port(), router.ring().size(), router.reactors());
    std::printf("%s", router.ring().describe().c_str());
    for (std::size_t i = 0; i < router.ring().size(); ++i)
      std::printf("  node %zu owns %.1f%% of the keyspace\n", i,
                  router.ring().keyspace_share(i) * 100.0);

    if (serve_seconds > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(serve_seconds));
    } else {
      // Fronting external backends: serve until the process is killed.
      while (router.running())
        std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    router.stop();
    const clu::RouterStats s = router.stats();
    std::printf("routed %llu frames (%llu ingests, %llu queries, %llu of "
                "them to the owner first, %llu owner fallbacks, %llu partial "
                "failures)\n",
                static_cast<unsigned long long>(s.frames),
                static_cast<unsigned long long>(s.ingests_routed),
                static_cast<unsigned long long>(s.queries_scattered),
                static_cast<unsigned long long>(s.owner_queries),
                static_cast<unsigned long long>(s.owner_fallbacks),
                static_cast<unsigned long long>(s.partial_failures));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nyqmon_router: %s\n", e.what());
    return 1;
  }
  for (auto& backend : backends) backend->stop();
  return 0;
}
