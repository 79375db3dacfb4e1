// Snapshot-isolated read primitives for the retention store.
//
// Reconstructing under the owning stripe lock would serialize one slow
// query against ingest (the streaming bench measured a ~1000x p50/p99
// latency split when reads did). This header holds the pieces that
// decouple readers from writers:
//
//   SealedChunk      an immutable sealed chunk, shared by reference
//                    between the store and any live snapshots.
//   reconstruct_range()  the one band-limited reconstruction algorithm,
//                    behind ReadSnapshot::query().
//   EpochRegistry    a monotonic epoch counter plus the set of epochs
//                    pinned by live snapshots. Chunks evicted by the
//                    retention cap are parked here, stamped with the
//                    epoch at eviction, and freed only once every
//                    snapshot acquired at-or-before that epoch has been
//                    released.
//
// ReadSnapshot itself (the user-facing handle) lives in monitor/store.h
// with the store's other value types; StripedRetentionStore
// (monitor/striped_store.h) hands it out.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "signal/timeseries.h"

namespace nyqmon::mon {

/// One sealed chunk: a regular grid (t0, dt) and the (possibly
/// Nyquist-re-sampled) values. Immutable once sealed — the store and any
/// number of snapshots share it by shared_ptr<const SealedChunk>.
struct SealedChunk {
  double t0 = 0.0;
  double dt = 0.0;
  std::vector<double> values;
};

using SealedChunkRef = std::shared_ptr<const SealedChunk>;

/// Reconstruct the half-open range [t_begin, t_end) on the collection grid
/// from sealed chunks plus the unsealed hot tail (rooted at hot_t0, raw at
/// the collection rate). The algorithm behind ReadSnapshot::query, whose
/// contract it implements (clamped empty ranges, hole-filling with the
/// nearest value, nearest-value hold for fully disjoint ranges).
sig::RegularSeries reconstruct_range(double collection_rate_hz,
                                     std::span<const SealedChunkRef> chunks,
                                     std::span<const double> hot,
                                     double hot_t0, double t_begin,
                                     double t_end);

/// Epoch bookkeeping for snapshot-isolated reads. One registry is shared
/// by every stripe of a store (and by the snapshots it hands out):
///
///   pin()      called under acquire_snapshot(): advances the epoch and
///              registers the new value as live.
///   release()  called when a ReadSnapshot is destroyed/released.
///   retire()   called by the store (under its stripe lock) when the
///              retention cap evicts a sealed chunk: the chunk is parked
///              with the current epoch instead of being freed.
///
/// A parked chunk is reclaimed when no live snapshot's epoch is <= its
/// retire epoch — i.e. when every snapshot that could have captured a
/// reference before the eviction has been released. Snapshots pinned
/// *after* the eviction never saw the chunk and do not delay it.
///
/// Thread-safe; all methods take one internal mutex (acquire/release are
/// off the per-sample hot path).
class EpochRegistry {
 public:
  /// Advance the epoch, mark it live, and return it.
  std::uint64_t pin();

  /// Drop one pin of `epoch`; reclaims any parked chunks that no longer
  /// have a live snapshot at-or-before their retire epoch.
  void release(std::uint64_t epoch);

  /// Park an evicted chunk under the current epoch (freed immediately when
  /// no snapshot is live).
  void retire(SealedChunkRef chunk);

  /// Live (acquired but unreleased) snapshot count.
  std::size_t active_snapshots() const;

  /// Evicted chunks still parked behind a live snapshot's epoch.
  std::size_t retired_pending() const;

 private:
  /// Free every parked chunk whose retire epoch precedes all live pins.
  /// Call with mu_ held; destroys chunks outside the lock via `freed`.
  void collect_locked(std::vector<SealedChunkRef>& freed);
  void publish_gauges_locked() const;

  mutable std::mutex mu_;
  std::uint64_t epoch_ = 0;
  std::map<std::uint64_t, std::size_t> active_;  ///< live epoch -> pin count
  std::vector<std::pair<std::uint64_t, SealedChunkRef>> retired_;
};

}  // namespace nyqmon::mon
