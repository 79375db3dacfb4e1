// nyqmon_ctl — command-line client for a running nyqmond.
//
// Usage:
//   nyqmon_ctl <host> <port> stats
//   nyqmon_ctl <host> <port> query <selector> <t_begin> <t_end> <step_s>
//              [agg: none|sum|avg|min|max|p50|p95|p99] [tf: raw|rate|zscore]
//              [--explain]
//   nyqmon_ctl <host> <port> ingest <stream> <rate_hz> <t0> <v1,v2,...>
//   nyqmon_ctl <host> <port> checkpoint
//   nyqmon_ctl <host> <port> metrics [--fleet]
//   nyqmon_ctl <host> <port> trace [out.json] [--fleet]
//   nyqmon_ctl <host> <port> logs
//   nyqmon_ctl <host> <port> handoff <selector> <dst_host> <dst_port>
//
// `handoff` moves every stream matching <selector> from <host>:<port> to
// <dst_host>:<dst_port>: a HANDOFF EXPORT on the source ships a segment
// image of the matched streams, a HANDOFF IMPORT restores them on the
// destination and checkpoints them durable there. The source keeps its
// copy; retire the source node once the import reports persisted.
// Meanwhile a router reads a duplicated stream from its ring owner's copy,
// the one later INGEST reaches (an exact query asks the owner alone), so
// hand a stream to the node that owns it in the router's ring: a copy
// anywhere else is read only for a range its owner holds no data in.
//
// `metrics` prints the server's Prometheus text exposition (metric catalog:
// docs/OBSERVABILITY.md). `trace` drains the server's trace ring to
// chrome://tracing JSON — load the file via chrome://tracing or
// https://ui.perfetto.dev; without an output path the JSON goes to stdout.
// Against a router, `--fleet` widens both to the whole fleet: metrics come
// back as one `# == node <name> ==` section per node, and trace stitches
// every node's spans into a single timeline sharing the propagated trace
// ids. `logs` drains the server's structured log ring (consuming, like
// trace). `query --explain` appends the server's own per-stage latency
// breakdown; a router reports scatter/merge plus per-backend gather rows.
//
// Examples against the default nyqmond demo:
//   nyqmon_ctl 127.0.0.1 7411 stats
//   nyqmon_ctl 127.0.0.1 7411 query 'pod0/*/cpu_util' 0 86400 600 p95
//   nyqmon_ctl 127.0.0.1 7411 ingest lab/sensor 1.0 0 1.5,1.7,2.1,2.4
//   nyqmon_ctl 127.0.0.1 7411 metrics
//   nyqmon_ctl 127.0.0.1 7411 trace /tmp/nyqmond-trace.json
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "query/builder.h"
#include "server/client.h"

using namespace nyqmon;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nyqmon_ctl <host> <port> "
               "stats | checkpoint | metrics [--fleet] | "
               "trace [out.json] [--fleet] | logs | "
               "query <selector> <t0> <t1> <step> "
               "[agg] [tf] [--explain] | "
               "ingest <stream> <rate_hz> <t0> <v1,v2,...> | "
               "handoff <selector> <dst_host> <dst_port>\n");
  return 2;
}

/// The EXPLAIN stage table: primary stages partition the total (rendered
/// with their share); `backend/<node>` rows overlap the scatter stage and
/// are bracketed instead of summed.
void print_explain(const srv::QueryExplainBlock& explain) {
  std::printf("explain: total %.3f ms\n",
              static_cast<double>(explain.total_ns) / 1e6);
  for (const auto& entry : explain.stages) {
    const double ms = static_cast<double>(entry.ns) / 1e6;
    if (entry.stage.rfind("backend/", 0) == 0) {
      std::printf("  [%-18s %9.3f ms]  (overlaps scatter)\n",
                  entry.stage.c_str(), ms);
    } else {
      const double pct =
          explain.total_ns == 0
              ? 0.0
              : 100.0 * static_cast<double>(entry.ns) /
                    static_cast<double>(explain.total_ns);
      std::printf("  %-20s %9.3f ms  %5.1f%%\n", entry.stage.c_str(), ms,
                  pct);
    }
  }
}

bool parse_aggregation(const std::string& s, qry::Aggregation& out) {
  static const std::pair<const char*, qry::Aggregation> kNames[] = {
      {"none", qry::Aggregation::kNone}, {"sum", qry::Aggregation::kSum},
      {"avg", qry::Aggregation::kAvg},   {"min", qry::Aggregation::kMin},
      {"max", qry::Aggregation::kMax},   {"p50", qry::Aggregation::kP50},
      {"p95", qry::Aggregation::kP95},   {"p99", qry::Aggregation::kP99}};
  for (const auto& [name, value] : kNames) {
    if (s == name) {
      out = value;
      return true;
    }
  }
  return false;
}

bool parse_transform(const std::string& s, qry::Transform& out) {
  if (s == "raw") out = qry::Transform::kRaw;
  else if (s == "rate") out = qry::Transform::kRate;
  else if (s == "zscore") out = qry::Transform::kZScore;
  else return false;
  return true;
}

std::vector<double> parse_values(const std::string& csv) {
  std::vector<double> values;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string cell =
        csv.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!cell.empty()) values.push_back(std::atof(cell.c_str()));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string host = argv[1];
  const auto port = static_cast<std::uint16_t>(std::atoi(argv[2]));
  const std::string verb = argv[3];

  try {
    srv::NyqmonClient client(host, port);

    if (verb == "stats") {
      std::printf("%s\n", client.stats_json().c_str());
      return 0;
    }

    if (verb == "metrics") {
      const bool fleet = argc > 4 && std::strcmp(argv[4], "--fleet") == 0;
      std::printf("%s", client.metrics_text(fleet).c_str());
      return 0;
    }

    if (verb == "logs") {
      std::printf("%s", client.logs_text().c_str());
      return 0;
    }

    if (verb == "trace") {
      bool fleet = false;
      const char* out_path = nullptr;
      for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fleet") == 0)
          fleet = true;
        else
          out_path = argv[i];
      }
      const std::string json = client.trace_json(fleet);
      if (out_path != nullptr) {
        std::FILE* f = std::fopen(out_path, "w");
        if (f == nullptr) {
          std::fprintf(stderr, "cannot open %s for writing\n", out_path);
          return 1;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("wrote %zu bytes to %s (open via chrome://tracing)\n",
                    json.size(), out_path);
      } else {
        std::printf("%s\n", json.c_str());
      }
      return 0;
    }

    if (verb == "checkpoint") {
      const srv::CheckpointReply r = client.checkpoint();
      std::printf("checkpoint: persisted=%s chunks=%llu bytes=%llu\n",
                  r.persisted ? "yes" : "no",
                  static_cast<unsigned long long>(r.chunks),
                  static_cast<unsigned long long>(r.bytes_written));
      return 0;
    }

    if (verb == "query") {
      bool explain = false;
      std::vector<std::string> args;  // positional args, flags peeled off
      for (int i = 4; i < argc; ++i) {
        if (std::strcmp(argv[i], "--explain") == 0)
          explain = true;
        else
          args.emplace_back(argv[i]);
      }
      if (args.size() < 4) return usage();
      qry::Aggregation agg = qry::Aggregation::kNone;
      qry::Transform tf = qry::Transform::kRaw;
      if (args.size() > 4 && !parse_aggregation(args[4], agg)) return usage();
      if (args.size() > 5 && !parse_transform(args[5], tf)) return usage();
      const qry::QuerySpec spec =
          qry::QueryBuilder()
              .select(args[0])
              .range(std::atof(args[1].c_str()), std::atof(args[2].c_str()))
              .align(std::atof(args[3].c_str()))
              .transform(tf)
              .aggregate(agg)
              .build();

      const srv::QueryReply reply = client.query(spec, false, explain);
      std::printf("matched %u stream(s), reconstructed %u%s\n", reply.matched,
                  reply.reconstructed,
                  reply.cache_hit ? " (served from cache)" : "");
      for (const auto& s : reply.series) {
        std::printf("%-40s n=%zu", s.label.c_str(), s.series.size());
        const std::size_t shown = std::min<std::size_t>(s.series.size(), 6);
        for (std::size_t i = 0; i < shown; ++i)
          std::printf(" %.4g", s.series[i]);
        if (s.series.size() > shown) std::printf(" ...");
        std::printf("\n");
      }
      if (explain) {
        if (reply.explain.has_value())
          print_explain(*reply.explain);
        else
          std::printf("explain: not supported by this server\n");
      }
      return 0;
    }

    if (verb == "ingest") {
      if (argc < 8) return usage();
      const std::vector<double> values = parse_values(argv[7]);
      const std::uint64_t total =
          client.ingest(argv[4], std::atof(argv[5]), std::atof(argv[6]),
                        values);
      std::printf("ingested %zu value(s); stream now holds %llu\n",
                  values.size(), static_cast<unsigned long long>(total));
      return 0;
    }

    if (verb == "handoff") {
      if (argc < 7) return usage();
      const std::string selector = argv[4];
      const std::string dst_host = argv[5];
      const auto dst_port = static_cast<std::uint16_t>(std::atoi(argv[6]));

      const srv::HandoffExportReply exported =
          client.handoff_export(selector);
      if (exported.streams == 0) {
        std::printf("handoff: no streams match '%s'\n", selector.c_str());
        return 0;
      }
      std::printf("exported %u stream(s), %llu samples (%zu segment bytes)\n",
                  exported.streams,
                  static_cast<unsigned long long>(exported.samples),
                  exported.segment.size());

      srv::NyqmonClient dst(dst_host, dst_port);
      const srv::HandoffImportReply imported =
          dst.handoff_import(exported.segment);
      std::printf("imported %u stream(s), %llu samples into %s:%u "
                  "(persisted=%s)\n",
                  imported.streams,
                  static_cast<unsigned long long>(imported.samples),
                  dst_host.c_str(), dst_port,
                  imported.persisted ? "yes" : "no");
      return 0;
    }

    return usage();
  } catch (const srv::ServerError& e) {
    std::fprintf(stderr, "nyqmon_ctl: %s\n", e.what());
    for (const auto& d : e.details())
      std::fprintf(stderr, "  %s: %s\n", d.node.c_str(), d.error.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nyqmon_ctl: %s\n", e.what());
    return 1;
  }
}
