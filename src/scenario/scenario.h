// Scenario → fleet construction.
//
// build_scenario() turns a declarative ScenarioSpec into a tel::Fleet the
// StreamingRuntime can drive unchanged: every group stream becomes one
// metric-device pair carrying a composed ground-truth signal
// (scenario/waveforms.h adaptors over the signal/source.h atoms), and the
// returned GroupRange index map lets callers aggregate per-pair outcomes
// back per scenario group (the frontier driver's unit of report).
//
// Determinism contract — the property every scenario experiment leans on:
//   * Every stream's RNG seed is a stable hash of (scenario seed, group
//     name, stream index) — see stream_seed(). Two builds of equal specs
//     produce bit-identical signals, and editing, removing or reordering
//     one group never perturbs the streams of another.
//   * Build order is sequential and independent of any worker count; all
//     randomness is consumed at build time (signals are immutable
//     afterwards), so runs over a scenario fleet inherit the runtime's
//     bit-identical-across-workers guarantee.
//
// Ownership: BuiltScenario owns the fleet; runtimes borrow it (const&) and
// must not outlive it. Threading: building is single-threaded; a built
// fleet is immutable and safe to share across runtime workers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.h"
#include "telemetry/fleet.h"

namespace nyqmon::scn {

/// Where one group's streams landed in the built fleet's pair order.
struct GroupRange {
  std::string name;
  SignalFamily family = SignalFamily::kGauge;
  tel::MetricKind metric = tel::MetricKind::kTemperature;
  std::size_t first_pair = 0;  ///< index into Fleet::pairs()
  std::size_t pairs = 0;       ///< contiguous count from first_pair
};

struct BuiltScenario {
  std::string name;  ///< the spec's scenario name
  tel::Fleet fleet;
  std::vector<GroupRange> groups;  ///< spec order; ranges partition the fleet
};

/// The seed stream `index` of `group` draws from: a stable FNV-1a hash of
/// (spec seed, group name, index). Exposed so tests can pin the contract.
std::uint64_t stream_seed(const ScenarioSpec& spec,
                          const StreamGroupSpec& group, std::size_t index);

/// Build the fleet: validates the spec, sizes a synthetic topology to the
/// stream count, and instantiates every group stream deterministically
/// (see the header comment). Scenario fleets assign metrics to devices in
/// sequence and need not respect the tier-export rules of tel::Fleet's
/// random population. Throws std::invalid_argument on an invalid spec.
BuiltScenario build_scenario(const ScenarioSpec& spec);

/// The stock mixed workload the examples default to when not given a spec
/// file: all seven signal families weighted to roughly `target_streams`
/// pairs total, with correlation, dropout and clock-skew knobs exercised
/// on a subset of groups. target_streams >= 7.
ScenarioSpec default_scenario(std::size_t target_streams,
                              std::uint64_t seed = 1);

}  // namespace nyqmon::scn
