// Fleet run configuration and results.
//
// The paper's evaluation is fleet-wide — 1613 metric-device pairs, 14
// metrics — but the adaptive pipeline (monitor/pipeline.h) drives one signal
// at a time. rt::StreamingRuntime (runtime/runtime.h) scales it out: every
// pair of a fleet is driven through adaptive sampling, reconstruction and an
// aliasing audit concurrently, reconstructions flow into a shared
// StripedRetentionStore keyed by "device/metric" stream IDs, and
// per-pair outcomes feed the fleet report (engine/report.h). This header
// holds the types that describe such a run: its config (EngineConfig), one
// pair's outcome (PairOutcome) and the aggregate (FleetRunResult).
//
// Cost semantics: adaptive sampling only saves on pairs whose production
// rate exceeds their Nyquist rate. Pairs the dual-rate detector finds
// undersampled are driven *above* their production rate (Section 4.2), so a
// fleet dominated by wideband event counters can legitimately cost more
// than the fixed-rate baseline — the report splits both populations out.
//
// Determinism: a run's results are bit-identical for any worker count (see
// runtime/runtime.h for how the runtime keeps them so). eng::run_digest()
// (engine/report.h) is the compact test hook for this contract.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "monitor/cost_model.h"
#include "monitor/store.h"
#include "nyquist/adaptive_sampler.h"
#include "storage/manager.h"
#include "telemetry/fleet.h"

namespace nyqmon::eng {

struct EngineConfig {
  /// Worker threads (0 = hardware concurrency).
  std::size_t workers = 0;
  /// Windowing of each pair's trace, in samples at its production rate —
  /// uniform per-pair cost no matter how slow the metric's poll interval is.
  std::size_t samples_per_window = 64;
  std::size_t windows_per_pair = 8;
  /// Per-pair sampler rate bounds, relative to the pair's production rate.
  double max_speedup = 4.0;
  double max_slowdown = 16.0;
  /// Measurement noise as a fraction of each metric's fluctuation scale.
  double relative_noise = 0.01;
  std::uint64_t seed = 7;
  /// Template sampler config; rate bounds and window duration are
  /// overridden per pair from the fields above.
  nyq::AdaptiveConfig sampler;
  /// Retention behind the fan-in; small chunks so engine-scale traces still
  /// exercise the a-posteriori re-sampling path.
  mon::StoreConfig store = [] {
    mon::StoreConfig c;
    c.chunk_samples = 128;
    return c;
  }();
  std::size_t store_stripes = 16;
  mon::CostModel cost;
  /// Durable tier (storage/manager.h). When `storage.dir` is non-empty the
  /// run persists: stream creations and every ingest batch are
  /// write-ahead-logged under that directory (a mid-run crash loses at most
  /// the records after the last fsync), and the run checkpoints the store
  /// into compressed segments on completion. The directory's previous
  /// nyqmon layout, if any, is truncated — each run is a fresh storage
  /// generation. Reopen it afterwards with StorageManager + recover() (see
  /// examples/fleet_query.cpp).
  sto::StorageConfig storage;
};

/// Outcome of driving one metric-device pair.
struct PairOutcome {
  std::size_t pair_index = 0;
  std::string stream_id;
  tel::MetricKind kind = tel::MetricKind::kTemperature;
  double production_rate_hz = 0.0;
  double cost_savings = 0.0;  ///< baseline samples / adaptive samples
  double nrmse = 0.0;
  double max_abs_error = 0.0;
  std::size_t adaptive_samples = 0;  ///< includes detector overhead
  std::size_t baseline_samples = 0;
  /// This pair's retention byte bill after its reconstruction was ingested
  /// (see mon::StreamStats): raw f64 bytes vs codec-encoded footprint.
  std::uint64_t store_bytes_raw = 0;
  std::uint64_t store_bytes_stored = 0;
  nyq::RunAudit audit;
};

struct FleetRunResult {
  std::vector<PairOutcome> pairs;  ///< indexed by fleet pair order
  mon::Cost adaptive_cost;
  mon::Cost baseline_cost;
  mon::StoreRollup store;
  std::size_t workers_used = 0;
  double wall_seconds = 0.0;  ///< not part of the deterministic aggregates
  /// Durable-tier outcome; meaningful only when `persisted` (storage.dir
  /// was set): the end-of-run checkpoint plus the manager's counters.
  bool persisted = false;
  sto::FlushStats flush;
  sto::StorageStats storage;

  /// Fleet-wide sample-count savings: sum(baseline) / sum(adaptive).
  double fleet_cost_savings() const {
    std::size_t adaptive = 0;
    std::size_t baseline = 0;
    for (const auto& p : pairs) {
      adaptive += p.adaptive_samples;
      baseline += p.baseline_samples;
    }
    return mon::ratio_or_one(baseline, adaptive);
  }
};

}  // namespace nyqmon::eng
