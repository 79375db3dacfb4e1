// Fleet generation: the synthetic counterpart of the paper's study
// population ("In total, we studied 1613 metric and device pairs (14
// distinct metrics)").
//
// A Fleet pairs topology devices with metric instances. Metrics are
// assigned by tier — switches export counter/error/link metrics, servers
// export CPU/memory/temperature — and every pair carries its own
// ground-truth band-limited signal.
#pragma once

#include <vector>

#include "telemetry/metric_model.h"
#include "telemetry/topology.h"
#include "util/rng.h"

namespace nyqmon::tel {

/// One metric on one device: the unit of the paper's study.
struct FleetPair {
  Device device;
  MetricInstance metric;
};

/// Stable stream identifier "device/metric" — the key retention stores and
/// the fleet engine use for this pair's data.
std::string stream_id(const FleetPair& pair);

/// The collection plan a scheduler derives for one pair: how fast the
/// production deployment polls it and how a windowed sampler should carve up
/// its trace. Windows are sized in *samples at the production rate* so every
/// pair costs roughly the same to drive regardless of its poll interval.
struct PairSchedule {
  double production_rate_hz = 0.0;
  double window_duration_s = 0.0;
  double duration_s = 0.0;  ///< windows * window_duration
};

PairSchedule schedule_pair(const FleetPair& pair,
                           std::size_t samples_per_window,
                           std::size_t windows);

struct FleetConfig {
  /// Target number of metric-device pairs; the paper studied 1613.
  std::size_t target_pairs = 1613;
  std::uint64_t seed = 42;
  /// Default topology sized so the default pair target fits (6 pods of 8
  /// racks yield ~1700 exportable pairs).
  TopologyConfig topology{.pods = 6};
};

class Fleet {
 public:
  explicit Fleet(const FleetConfig& config);

  /// A fleet whose pair population was built elsewhere (e.g. by the
  /// scenario layer, scenario/scenario.h) rather than drawn randomly from
  /// the topology's exportable combinations. Stream IDs must be unique
  /// across `pairs`; every pair must carry a signal.
  Fleet(Topology topology, std::vector<FleetPair> pairs);

  const std::vector<FleetPair>& pairs() const { return pairs_; }
  std::size_t size() const { return pairs_.size(); }
  const Topology& topology() const { return topology_; }

  /// Metrics a device of this tier plausibly exports.
  static std::vector<MetricKind> metrics_for(DeviceKind kind);

 private:
  Topology topology_;
  std::vector<FleetPair> pairs_;
};

}  // namespace nyqmon::tel
