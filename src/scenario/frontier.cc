#include "scenario/frontier.h"

#include <chrono>
#include <cmath>

#include "analysis/cdf.h"
#include "monitor/store.h"
#include "runtime/clock.h"
#include "runtime/runtime.h"
#include "util/ascii.h"
#include "util/check.h"
#include "util/csv.h"

namespace nyqmon::scn {

namespace {

FrontierCell make_cell(const GroupRange& group,
                       const eng::FleetRunResult& result, double cutoff,
                       double slowdown) {
  FrontierCell cell;
  cell.group = group.name;
  cell.family = group.family;
  cell.metric = group.metric;
  cell.energy_cutoff = cutoff;
  cell.max_slowdown = slowdown;
  cell.pairs = group.pairs;

  std::size_t adaptive = 0, baseline = 0, windows = 0, aliased = 0;
  std::uint64_t bytes_raw = 0, bytes_stored = 0;
  std::vector<double> nrmse;
  nrmse.reserve(group.pairs);
  for (std::size_t i = group.first_pair; i < group.first_pair + group.pairs;
       ++i) {
    const eng::PairOutcome& p = result.pairs[i];
    adaptive += p.adaptive_samples;
    baseline += p.baseline_samples;
    windows += p.audit.windows;
    aliased += p.audit.aliased_windows;
    bytes_raw += p.store_bytes_raw;
    bytes_stored += p.store_bytes_stored;
    if (std::isfinite(p.nrmse))
      nrmse.push_back(p.nrmse);
    else
      ++cell.nrmse_degenerate;
  }
  cell.cost_savings = mon::ratio_or_one(baseline, adaptive);
  cell.byte_compression = mon::ratio_or_one(bytes_raw, bytes_stored);
  cell.aliased_fraction =
      windows == 0 ? 0.0
                   : static_cast<double>(aliased) / static_cast<double>(windows);
  if (!nrmse.empty()) {
    const ana::Cdf cdf(nrmse);
    cell.nrmse_p50 = cdf.quantile(0.50);
    cell.nrmse_p95 = cdf.quantile(0.95);
  }
  return cell;
}

}  // namespace

FrontierResult run_frontier(const BuiltScenario& built,
                            const FrontierConfig& config) {
  NYQMON_CHECK(!config.energy_cutoffs.empty());
  NYQMON_CHECK(!config.max_slowdowns.empty());
  const auto t_start = std::chrono::steady_clock::now();

  FrontierResult result;
  result.scenario = built.name;
  result.grid_points = config.energy_cutoffs.size() *
                       config.max_slowdowns.size();
  for (const double cutoff : config.energy_cutoffs) {
    for (const double slowdown : config.max_slowdowns) {
      rt::RuntimeConfig cfg;
      cfg.engine = config.engine;
      cfg.engine.sampler.estimator.energy_cutoff = cutoff;
      cfg.engine.max_slowdown = slowdown;
      rt::VirtualClock clock;
      rt::StreamingRuntime runtime(built.fleet, clock, cfg);
      const eng::FleetRunResult run = runtime.run_to_completion();
      result.pair_runs += run.pairs.size();
      for (const GroupRange& group : built.groups)
        result.cells.push_back(make_cell(group, run, cutoff, slowdown));
    }
  }
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_start)
          .count();
  return result;
}

std::string render(const FrontierResult& result) {
  AsciiTable table({"group", "family", "cutoff", "max_slowdown", "pairs",
                    "savings", "nrmse_p50", "nrmse_p95", "bytes_x",
                    "aliased"});
  for (const FrontierCell& c : result.cells) {
    table.row({c.group, family_name(c.family),
               AsciiTable::format_double(c.energy_cutoff),
               AsciiTable::format_double(c.max_slowdown),
               std::to_string(c.pairs),
               AsciiTable::format_double(c.cost_savings),
               AsciiTable::format_double(c.nrmse_p50),
               AsciiTable::format_double(c.nrmse_p95),
               AsciiTable::format_double(c.byte_compression),
               AsciiTable::format_double(c.aliased_fraction)});
  }
  return table.render();
}

void write_csv(const FrontierResult& result, const std::string& path) {
  CsvWriter csv(path, {"group", "family", "metric", "energy_cutoff",
                       "max_slowdown", "pairs", "cost_savings", "nrmse_p50",
                       "nrmse_p95", "nrmse_degenerate", "byte_compression",
                       "aliased_fraction"});
  for (const FrontierCell& c : result.cells) {
    csv.row({c.group, family_name(c.family), tel::metric_name(c.metric),
             CsvWriter::format_double(c.energy_cutoff),
             CsvWriter::format_double(c.max_slowdown), std::to_string(c.pairs),
             CsvWriter::format_double(c.cost_savings),
             CsvWriter::format_double(c.nrmse_p50),
             CsvWriter::format_double(c.nrmse_p95),
             std::to_string(c.nrmse_degenerate),
             CsvWriter::format_double(c.byte_compression),
             CsvWriter::format_double(c.aliased_fraction)});
  }
}

}  // namespace nyqmon::scn
