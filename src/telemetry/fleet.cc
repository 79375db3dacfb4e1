#include "telemetry/fleet.h"

#include <algorithm>
#include <set>

#include "util/check.h"

namespace nyqmon::tel {

std::string stream_id(const FleetPair& pair) {
  return pair.device.name() + "/" + metric_name(pair.metric.kind);
}

PairSchedule schedule_pair(const FleetPair& pair,
                           std::size_t samples_per_window,
                           std::size_t windows) {
  NYQMON_CHECK(samples_per_window >= 2);
  NYQMON_CHECK(windows >= 1);
  NYQMON_CHECK(pair.metric.poll_interval_s > 0.0);
  PairSchedule s;
  s.production_rate_hz = 1.0 / pair.metric.poll_interval_s;
  s.window_duration_s =
      static_cast<double>(samples_per_window) * pair.metric.poll_interval_s;
  s.duration_s = static_cast<double>(windows) * s.window_duration_s;
  return s;
}

std::vector<MetricKind> Fleet::metrics_for(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kServer:
      // Servers export host metrics plus NIC-level error/discard counters.
      return {MetricKind::kCpuUtil5Pct,      MetricKind::kMemoryUsage,
              MetricKind::kTemperature,      MetricKind::kPeakEgressBw,
              MetricKind::kPeakIngressBw,    MetricKind::kFcsErrors,
              MetricKind::kInboundDiscards,  MetricKind::kOutboundDiscards};
    case DeviceKind::kTorSwitch:
    case DeviceKind::kAggSwitch:
    case DeviceKind::kCoreSwitch:
      return {MetricKind::kOutboundDiscards, MetricKind::kUnicastDrops,
              MetricKind::kMulticastDrops,   MetricKind::kMulticastBytes,
              MetricKind::kUnicastBytes,     MetricKind::kInboundDiscards,
              MetricKind::kMemoryUsage,      MetricKind::kLinkUtil,
              MetricKind::kLossyPaths,       MetricKind::kTemperature,
              MetricKind::kFcsErrors,        MetricKind::kCpuUtil5Pct};
  }
  return {};
}

Fleet::Fleet(const FleetConfig& config) : topology_(config.topology) {
  NYQMON_CHECK(config.target_pairs >= 1);
  Rng rng(config.seed);

  // Enumerate every exportable (device, metric) combination, then draw the
  // study population as a uniform random subset — so any reasonably sized
  // fleet covers all 14 metrics and every tier.
  const auto& devices = topology_.devices();
  NYQMON_CHECK(!devices.empty());

  std::vector<std::pair<std::size_t, MetricKind>> combos;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    for (MetricKind kind : metrics_for(devices[d].kind)) {
      combos.emplace_back(d, kind);
    }
  }
  NYQMON_CHECK_MSG(combos.size() >= config.target_pairs,
                   "topology too small for the requested pair count");
  std::shuffle(combos.begin(), combos.end(), rng.engine());

  pairs_.reserve(config.target_pairs);
  for (std::size_t i = 0; i < config.target_pairs; ++i) {
    const auto& [d, kind] = combos[i];
    Rng child = rng.fork();
    FleetPair pair;
    pair.device = devices[d];
    pair.metric = make_metric_instance(
        kind, metric_spec(kind).trace_duration_s, child);
    pairs_.push_back(std::move(pair));
  }
}

Fleet::Fleet(Topology topology, std::vector<FleetPair> pairs)
    : topology_(std::move(topology)), pairs_(std::move(pairs)) {
  NYQMON_CHECK_MSG(!pairs_.empty(), "a fleet needs at least one pair");
  std::set<std::string> ids;
  for (const auto& pair : pairs_) {
    NYQMON_CHECK_MSG(pair.metric.signal != nullptr,
                     "every fleet pair needs a ground-truth signal");
    NYQMON_CHECK_MSG(pair.metric.poll_interval_s > 0.0,
                     "every fleet pair needs a polling interval");
    NYQMON_CHECK_MSG(ids.insert(stream_id(pair)).second,
                     "duplicate stream id in externally built fleet");
  }
}

}  // namespace nyqmon::tel
