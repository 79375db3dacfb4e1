// Shared plumbing for the experiment harnesses: the paper-scale fleet
// audit (1613 metric-device pairs, 14 metrics) and CSV output management.
#pragma once

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "monitor/audit.h"
#include "telemetry/fleet.h"

namespace nyqmon::bench {

/// Seed used by every harness so all figures describe the same fleet.
inline constexpr std::uint64_t kFleetSeed = 20211110;  // HotNets'21 day 1

/// The paper's study population: 1613 metric-device pairs.
inline tel::Fleet make_paper_fleet() {
  tel::FleetConfig cfg;
  cfg.target_pairs = 1613;
  cfg.seed = kFleetSeed;
  return tel::Fleet(cfg);
}

/// Audit of the full paper-scale fleet (shared by Figures 1, 4, 5 and the
/// headline table).
inline mon::AuditResult run_paper_audit() {
  const tel::Fleet fleet = make_paper_fleet();
  mon::AuditConfig cfg;
  return mon::run_audit(fleet, cfg);
}

/// bench_results/ beside the running executable (created on demand): a
/// bench writes under its build tree from whatever directory it runs, and
/// never over the checked-in baselines in the source tree's bench_results/.
inline std::filesystem::path results_dir() {
  const auto dir =
      std::filesystem::read_symlink("/proc/self/exe").parent_path() /
      "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Path of the CSV result file `name`.csv in results_dir().
inline std::string csv_path(const std::string& name) {
  return (results_dir() / (name + ".csv")).string();
}

/// Append one printf-formatted value to a comma-joined JSON array body
/// (the "1,2,4,8" inside "[...]").
template <typename T>
inline void json_append(std::string& list, const char* fmt, T value) {
  char cell[48];
  std::snprintf(cell, sizeof(cell), fmt, value);
  if (!list.empty()) list += ',';
  list += cell;
}

/// Persist one machine-readable JSON line to BENCH_<name>.json in
/// results_dir() and echo it to stdout — the hook the perf trajectory
/// tooling scrapes for regression tracking. Callers pass a complete JSON
/// object literal.
inline void write_json_line(const std::string& name, const std::string& json) {
  std::ofstream out(results_dir() / ("BENCH_" + name + ".json"));
  out << json << "\n";
  std::printf("%s\n", json.c_str());
}

}  // namespace nyqmon::bench
