#include "engine/report.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "analysis/cdf.h"
#include "analysis/report.h"
#include "telemetry/metric_model.h"
#include "util/csv.h"
#include "util/hash.h"

namespace nyqmon::eng {

std::uint64_t run_digest(const FleetRunResult& result) {
  Fnv1a h;
  auto mix_double = [&h](double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    h.mix(bits);
  };
  for (const auto& p : result.pairs) {
    h.mix(p.pair_index);
    mix_double(p.cost_savings);
    mix_double(p.nrmse);
    mix_double(p.max_abs_error);
    h.mix(p.adaptive_samples);
    h.mix(p.baseline_samples);
    h.mix(p.audit.windows);
    h.mix(p.audit.aliased_windows);
    h.mix(p.audit.probe_windows);
    mix_double(p.audit.final_rate_hz);
  }
  h.mix(result.store.ingested_samples);
  h.mix(result.store.stored_samples);
  h.mix(result.store.chunks_reduced);
  return h.value();
}

EngineReport build_report(const FleetRunResult& result) {
  EngineReport report;
  report.pairs = result.pairs.size();
  report.adaptive_cost = result.adaptive_cost;
  report.baseline_cost = result.baseline_cost;
  report.fleet_cost_savings = result.fleet_cost_savings();
  report.store = result.store;
  report.workers_used = result.workers_used;
  report.wall_seconds = result.wall_seconds;
  report.persisted = result.persisted;
  report.flush = result.flush;
  report.storage = result.storage;

  for (const auto& p : result.pairs) {
    auto& m = report.by_metric[p.kind];
    m.kind = p.kind;
    ++m.pairs;
    m.cost_savings.push_back(p.cost_savings);
    if (std::isfinite(p.nrmse)) {
      m.nrmse.push_back(p.nrmse);
    } else {
      ++m.nrmse_degenerate;
    }
    m.windows += p.audit.windows;
    m.aliased_windows += p.audit.aliased_windows;
    m.probe_windows += p.audit.probe_windows;
    m.bytes_raw += p.store_bytes_raw;
    m.bytes_stored += p.store_bytes_stored;
    if (p.audit.final_rate_hz > 0.0)
      report.steady_rate_reduction.push_back(p.production_rate_hz /
                                             p.audit.final_rate_hz);
  }
  return report;
}

std::string render(const EngineReport& report) {
  std::ostringstream os;

  std::vector<ana::QuantileRow> savings;
  std::vector<ana::QuantileRow> nrmse;
  for (const auto& [kind, m] : report.by_metric) {
    savings.push_back({tel::metric_name(kind), m.cost_savings});
    nrmse.push_back({tel::metric_name(kind), m.nrmse});
  }
  os << "cost savings (baseline samples / adaptive samples), per metric\n"
     << ana::render_quantile_table(savings) << '\n'
     << "reconstruction NRMSE, per metric\n"
     << ana::render_quantile_table(nrmse) << '\n';

  os << "fleet: " << report.pairs << " pairs, " << report.workers_used
     << " workers\n";
  os << "fleet-wide cost savings: ";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.2fx (includes the probe transient)\n",
                report.fleet_cost_savings);
  os << buf;
  if (!report.steady_rate_reduction.empty()) {
    const ana::Cdf steady(report.steady_rate_reduction);
    std::size_t settled_slower = 0;
    std::size_t driven_faster = 0;
    for (const double r : report.steady_rate_reduction) {
      if (r > 1.0) ++settled_slower;
      if (r < 1.0) ++driven_faster;
    }
    std::snprintf(buf, sizeof(buf),
                  "steady-state rate reduction: median %.2fx "
                  "(p25 %.2fx, p75 %.2fx)\n",
                  steady.quantile(0.50), steady.quantile(0.25),
                  steady.quantile(0.75));
    os << buf;
    os << "  " << settled_slower
       << " pairs settled below their production rate (oversampled), "
       << driven_faster
       << " were driven above it (undersampled at production)\n";
  }
  os << "adaptive bill: " << mon::to_string(report.adaptive_cost) << '\n';
  os << "baseline bill: " << mon::to_string(report.baseline_cost) << '\n';
  std::snprintf(buf, sizeof(buf), "%.2fx", report.store.sealed_reduction());
  os << "retention: " << report.store.streams << " streams, "
     << report.store.ingested_samples << " ingested, "
     << report.store.stored_samples << " stored in sealed chunks ("
     << report.store.chunks_reduced << "/" << report.store.chunks
     << " chunks reduced, " << buf << " on sealed data)\n";
  // Sized for the worst case (three full-range doubles / u64s per line);
  // the shared 96-byte buf above would truncate at multi-GB fleet scales.
  char line[224];
  std::snprintf(line, sizeof(line),
                "retention bytes: %.2f MB raw -> %.2f MB stored "
                "(%.2fx, Nyquist re-sampling x value codec)\n",
                static_cast<double>(report.store.bytes_raw) / 1.0e6,
                static_cast<double>(report.store.bytes_stored) / 1.0e6,
                report.store.compression_ratio());
  os << line;
  if (report.persisted) {
    std::snprintf(line, sizeof(line),
                  "durable tier: %zu segment(s), %.2f MB on disk, "
                  "%llu WAL records (%llu fsyncs), flush %.2fs\n",
                  report.storage.segments,
                  static_cast<double>(report.storage.segment_bytes) / 1.0e6,
                  static_cast<unsigned long long>(report.storage.wal_records),
                  static_cast<unsigned long long>(report.storage.wal_syncs),
                  report.flush.seconds);
    os << line;
  }
  return os.str();
}

void write_csv(const EngineReport& report, const std::string& path) {
  CsvWriter csv(path,
                {"metric", "pairs", "savings_p5", "savings_p50", "savings_p95",
                 "nrmse_p50", "nrmse_p95", "nrmse_degenerate",
                 "aliased_window_fraction", "probe_window_fraction",
                 "bytes_raw", "bytes_stored", "compression_ratio"});
  for (const auto& [kind, m] : report.by_metric) {
    if (m.cost_savings.empty()) continue;
    const ana::Cdf savings(m.cost_savings);
    std::string nrmse_p50 = "-";
    std::string nrmse_p95 = "-";
    if (!m.nrmse.empty()) {
      const ana::Cdf nrmse(m.nrmse);
      nrmse_p50 = CsvWriter::format_double(nrmse.quantile(0.50));
      nrmse_p95 = CsvWriter::format_double(nrmse.quantile(0.95));
    }
    csv.row({tel::metric_name(kind), std::to_string(m.pairs),
             CsvWriter::format_double(savings.quantile(0.05)),
             CsvWriter::format_double(savings.quantile(0.50)),
             CsvWriter::format_double(savings.quantile(0.95)),
             nrmse_p50, nrmse_p95, std::to_string(m.nrmse_degenerate),
             CsvWriter::format_double(m.aliased_fraction()),
             CsvWriter::format_double(
                 m.windows == 0 ? 0.0
                                : static_cast<double>(m.probe_windows) /
                                      static_cast<double>(m.windows)),
             std::to_string(m.bytes_raw), std::to_string(m.bytes_stored),
             CsvWriter::format_double(m.compression_ratio())});
  }
}

}  // namespace nyqmon::eng
