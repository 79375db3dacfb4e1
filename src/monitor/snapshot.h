// Snapshot-isolated read primitives for the retention store.
//
// Reconstructing under the owning stripe lock would serialize one slow
// query against ingest (the streaming bench measured a ~1000x p50/p99
// latency split when reads did). This header holds the pieces that
// decouple readers from writers:
//
//   SealedChunk      an immutable sealed chunk. The store and any live
//                    snapshots share it by reference count: the retention
//                    cap only drops the store's reference, so an evicted
//                    chunk lives exactly as long as the last snapshot
//                    that captured it.
//   reconstruct_range()  the one band-limited reconstruction algorithm,
//                    behind ReadSnapshot::query().
//
// ReadSnapshot itself (the user-facing handle) lives in monitor/store.h
// with the store's other value types; StripedRetentionStore
// (monitor/striped_store.h) hands it out.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "signal/timeseries.h"

namespace nyqmon::mon {

/// One sealed chunk: a regular grid (t0, dt) and the (possibly
/// Nyquist-re-sampled) values. Immutable once sealed — the store and any
/// number of snapshots share it by shared_ptr<const SealedChunk>. The
/// durable tier exchanges chunks by value in the same shape.
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

}  // namespace nyqmon::mon
