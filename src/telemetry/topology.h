// Datacenter topology model.
//
// The paper's fleet study spans O(10^3) collection points: switches at
// several tiers plus servers. nyqmon's synthetic datacenter is a standard
// pod-based Clos layout — pods of racks, each rack a ToR switch plus
// servers, pods joined by aggregation and core tiers. Devices exist to give
// every synthetic trace a realistic identity (tier influences which metrics
// a device exports and how busy it is).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nyqmon::tel {

enum class DeviceKind {
  kServer,
  kTorSwitch,
  kAggSwitch,
  kCoreSwitch,
};

std::string to_string(DeviceKind kind);

struct Device {
  std::uint32_t id = 0;
  DeviceKind kind = DeviceKind::kServer;
  std::int32_t pod = -1;   ///< -1 for core devices (not in any pod)
  std::int32_t rack = -1;  ///< -1 for agg/core devices

  /// Stable human-readable name, e.g. "pod3/rack7/tor" or "core12".
  std::string name() const;
};

struct TopologyConfig {
  std::size_t pods = 4;
  std::size_t racks_per_pod = 8;
  std::size_t servers_per_rack = 4;
  std::size_t agg_per_pod = 2;
  std::size_t core_switches = 4;
};

/// A generated datacenter: device inventory grouped by tier.
class Topology {
 public:
  explicit Topology(const TopologyConfig& config);

  const std::vector<Device>& devices() const { return devices_; }
  std::size_t size() const { return devices_.size(); }
  const TopologyConfig& config() const { return config_; }

 private:
  TopologyConfig config_;
  std::vector<Device> devices_;
};

}  // namespace nyqmon::tel
