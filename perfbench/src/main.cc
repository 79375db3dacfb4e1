// perfbench — nyqmon's benchmark driver. perfbench/run.py builds and runs
// it; perfbench/METRICS.md describes the workloads and every metric.
//
// Usage: perfbench --workload fleet_ingest|router_fanout
//                  --seed N --seconds S --trace 0|1
//                  [--tiny] [--work-dir DIR] [--out FILE]
//
// Prints a report (host fingerprint, every metric by name and unit with
// its sample counts, the per-layer table and layer self times when
// traced), writes a JSON record of it all to --out (default
// <work-dir>/results/<workload>-seed<N>-trace<T>.json), and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"} holding the
// gated end-to-end metrics untraced and every per-layer metric traced.
// Exits 1 when an output check failed or the run could not complete.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "dsp/simd.h"
#include "harness.h"

using namespace perfbench;

namespace {

struct Fingerprint {
  unsigned cores;
  std::string simd;
  std::string build;
  std::string compiler;
};

Fingerprint host_fingerprint() {
  namespace simd = nyqmon::dsp::simd;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return {online_cores(), simd::level_name(simd::active_level()),
          PERFBENCH_BUILD_TYPE, compiler};
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fleet_ingest|router_fanout --seed N --seconds S "
               "--trace 0|1 [--tiny] [--work-dir DIR] [--out FILE]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& out_path) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") options.workload = value();
      else if (arg == "--seed") options.seed = std::stoull(value());
      else if (arg == "--seconds") options.seconds = std::stod(value());
      else if (arg == "--trace") options.trace = std::stoi(value()) != 0;
      else if (arg == "--tiny") options.tiny = true;
      else if (arg == "--work-dir") options.work_dir = value();
      else if (arg == "--out") out_path = value();
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char value[48];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i == 0 ? "\"" : ",\"") + metrics[i].name + "\":{\"value\":" +
           value + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-38s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  const Options options = parse(argc, argv, out_path);
  Result (*run)(const Options&, Tracer&) = nullptr;
  if (options.workload == "fleet_ingest") run = run_fleet_ingest;
  else if (options.workload == "router_fanout") run = run_router_fanout;
  else usage("unknown workload '" + options.workload + "'");

  const Fingerprint host = host_fingerprint();
  Tracer tracer;
  Result result;
  try {
    std::filesystem::create_directories(options.work_dir);
    result = run(options, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  std::vector<Metric> layers;
  for (const auto& [name, unit] : layer_catalog()) {
    const auto it = result.layers.find(name);
    layers.push_back(
        {name, unit, it == result.layers.end() ? 0.0 : it->second, ""});
  }
  const double failed_frac =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  result.workload.push_back({"failed_frac", "ratio", failed_frac,
                             std::to_string(result.failed) + " of " +
                                 std::to_string(result.attempted)});
  const bool correct = result.failed == 0 && result.attempted > 0;

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.tiny ? " tiny" : "");
  std::printf("host: cores=%u simd=%s build=%s compiler=%s\n", host.cores,
              host.simd.c_str(), host.build.c_str(), host.compiler.c_str());
  std::printf("inputs: digest=%016llx\n",
              static_cast<unsigned long long>(result.input_digest));
  print_table("end-to-end metrics:", result.workload);
  print_table("gated end-to-end metrics (BENCHMARK.json):", result.end_to_end);
  if (options.trace) {
    print_table("per-layer metrics:", layers);
    std::printf("self time by layer, from the benchmark's spans (ms):\n");
    for (const auto& [layer, ms] : tracer.self_ms_by_layer())
      std::printf("  %-12s %12.3f\n", layer.c_str(), ms);
    const std::string trace_path =
        options.work_dir + "/trace-" + options.workload + ".json";
    tracer.write_chrome_json(trace_path);
    std::printf("trace: %zu spans -> %s\n", tracer.size(), trace_path.c_str());
  }
  std::printf("checks: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const std::string& failure : result.failures)
    std::printf("  FAILED: %s\n", failure.c_str());

  if (out_path.empty())
    out_path = options.work_dir + "/results/" + options.workload + "-seed" +
               std::to_string(options.seed) + "-trace" +
               (options.trace ? "1" : "0") + ".json";
  std::filesystem::create_directories(
      std::filesystem::path(out_path).parent_path());
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(result.input_digest));
  std::ofstream record(out_path);
  record << "{\"fingerprint\":{\"cores\":" << host.cores << ",\"simd\":\""
         << host.simd << "\",\"build\":\"" << host.build
         << "\",\"compiler\":\"" << host.compiler << "\"},\"workload\":\""
         << options.workload << "\",\"seed\":" << options.seed
         << ",\"seconds\":" << options.seconds
         << ",\"trace\":" << (options.trace ? 1 : 0)
         << ",\"tiny\":" << (options.tiny ? "true" : "false")
         << ",\"correct\":" << (correct ? "true" : "false")
         << ",\"attempted\":" << result.attempted
         << ",\"failed\":" << result.failed << ",\"input_digest\":\""
         << digest << "\",\"end_to_end\":" << json_metrics(result.end_to_end)
         << ",\"workload_metrics\":" << json_metrics(result.workload)
         << ",\"per_layer\":" << json_metrics(layers) << "}\n";

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              json_metrics(options.trace ? layers : result.end_to_end)
                  .c_str());
  return correct ? 0 : 1;
}
