#include "telemetry/topology.h"

#include "util/check.h"

namespace nyqmon::tel {

std::string to_string(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kServer: return "server";
    case DeviceKind::kTorSwitch: return "tor";
    case DeviceKind::kAggSwitch: return "agg";
    case DeviceKind::kCoreSwitch: return "core";
  }
  return "unknown";
}

std::string Device::name() const {
  switch (kind) {
    case DeviceKind::kServer:
      return "pod" + std::to_string(pod) + "/rack" + std::to_string(rack) +
             "/srv" + std::to_string(id);
    case DeviceKind::kTorSwitch:
      return "pod" + std::to_string(pod) + "/rack" + std::to_string(rack) +
             "/tor";
    case DeviceKind::kAggSwitch:
      return "pod" + std::to_string(pod) + "/agg" + std::to_string(id);
    case DeviceKind::kCoreSwitch:
      return "core" + std::to_string(id);
  }
  return "dev" + std::to_string(id);
}

Topology::Topology(const TopologyConfig& config) : config_(config) {
  NYQMON_CHECK(config.pods >= 1);
  NYQMON_CHECK(config.racks_per_pod >= 1);

  std::uint32_t next_id = 0;
  for (std::size_t p = 0; p < config.pods; ++p) {
    for (std::size_t r = 0; r < config.racks_per_pod; ++r) {
      devices_.push_back({next_id++, DeviceKind::kTorSwitch,
                          static_cast<std::int32_t>(p),
                          static_cast<std::int32_t>(r)});
      for (std::size_t s = 0; s < config.servers_per_rack; ++s) {
        devices_.push_back({next_id++, DeviceKind::kServer,
                            static_cast<std::int32_t>(p),
                            static_cast<std::int32_t>(r)});
      }
    }
    for (std::size_t a = 0; a < config.agg_per_pod; ++a) {
      devices_.push_back({next_id++, DeviceKind::kAggSwitch,
                          static_cast<std::int32_t>(p), -1});
    }
  }
  for (std::size_t c = 0; c < config.core_switches; ++c) {
    devices_.push_back({next_id++, DeviceKind::kCoreSwitch, -1, -1});
  }
}

}  // namespace nyqmon::tel
