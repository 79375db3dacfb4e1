// Nyquist-aware retention store: the value types and the read handle.
//
// "In some cases, the actual measurement may be inexpensive relative to the
//  cost to store the metric or the cost of downstream analysis; in such
//  cases, we can use the above techniques a posteriori, i.e., measure at a
//  high rate, compute the nyquist rate over the measurements and store or
//  present for later analysis only the measurements that are re-sampled at
//  the lower nyquist rate." (paper Section 4, opening)
//
// StripedRetentionStore (monitor/striped_store.h) implements exactly that
// policy: streams are ingested at the (high) collection rate into a bounded
// hot buffer; when a chunk of the hot buffer seals, the store estimates its
// Nyquist rate and keeps the chunk re-sampled at headroom * that rate
// (falling back to the raw rate when the estimate is unusable). This header
// holds what the store's callers exchange with it: its configuration, the
// per-stream and store-wide accounting, the durable tier's snapshot types,
// the write-ahead sink interface, and ReadSnapshot, the handle through
// which every read reconstructs a time range back onto the collection grid
// by band-limited interpolation. ReadSnapshot's methods are defined with the
// store, in striped_store.cc.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "monitor/snapshot.h"
#include "nyquist/estimator.h"
#include "signal/timeseries.h"

namespace nyqmon::mon {

struct StoreConfig {
  /// Samples per sealed chunk (the unit of re-sampling decisions).
  std::size_t chunk_samples = 512;
  /// Rate headroom kept above the estimated Nyquist rate.
  double headroom = 1.5;
  /// In-memory retention cap: when a stream holds more than this many
  /// sealed chunks, the store drops its reference to the oldest. A chunk
  /// a live snapshot captured stays readable through that snapshot and is
  /// freed with it. 0 = unbounded — the default, and required for
  /// bit-identical cold-start recovery since evicted chunks cannot be
  /// re-exported.
  std::size_t max_chunks_per_stream = 0;
  nyq::EstimatorConfig estimator;
};

/// num/den with 1.0 as the neutral value when either count is zero — the
/// convention every reduction-style ratio below shares.
inline double ratio_or_one(std::size_t num, std::size_t den) {
  return num == 0 || den == 0
             ? 1.0
             : static_cast<double>(num) / static_cast<double>(den);
}

struct StreamStats {
  std::size_t ingested_samples = 0;
  /// Ingested samples that have been through chunk sealing (the rest sit
  /// raw in the hot tail); the fair denominator-side of stored_samples.
  std::size_t sealed_ingested_samples = 0;
  std::size_t stored_samples = 0;  ///< after re-sampling (sealed chunks)
  std::size_t chunks = 0;
  std::size_t chunks_reduced = 0;  ///< chunks stored below the raw rate
  /// Byte-level storage bill. bytes_raw is what storing every ingested
  /// sample as a plain f64 would cost; bytes_stored is the actual retention
  /// footprint: sealed chunks at their codec-encoded (Gorilla-XOR) size
  /// including per-chunk disk framing, plus the hot tail at raw f64 width
  /// (the tail lives uncompressed in the WAL until it seals). The ratio is
  /// the end-to-end compression: Nyquist re-sampling × value codec.
  std::uint64_t bytes_raw = 0;
  std::uint64_t bytes_stored = 0;

  double reduction() const {
    return ratio_or_one(ingested_samples, stored_samples);
  }

  double compression_ratio() const {
    return ratio_or_one(bytes_raw, bytes_stored);
  }
};

/// Cheap per-stream metadata: everything a serving layer needs to decide
/// whether a stream is worth reconstructing — its grid, the half-open
/// [t0, t_end) span of ingested data, and a write-generation counter that
/// bumps on every successful (non-empty) append. Result caches key their
/// entries on the generation so any ingest invalidates dependent queries.
struct StreamMeta {
  double collection_rate_hz = 0.0;
  double t0 = 0.0;
  /// End of ingested data (half-open): t0 + ingested_samples / rate.
  double t_end = 0.0;
  std::uint64_t generation = 0;
  std::size_t ingested_samples = 0;
};

/// Store-wide roll-up across all streams (the fleet-level storage bill the
/// engine report prints).
struct StoreRollup {
  std::size_t streams = 0;
  std::size_t ingested_samples = 0;
  std::size_t sealed_ingested_samples = 0;
  std::size_t stored_samples = 0;
  std::size_t chunks = 0;
  std::size_t chunks_reduced = 0;
  /// Fleet-wide byte bill (see StreamStats::bytes_raw/bytes_stored).
  std::uint64_t bytes_raw = 0;
  std::uint64_t bytes_stored = 0;

  double reduction() const {
    return ratio_or_one(ingested_samples, stored_samples);
  }

  /// End-to-end byte compression: Nyquist re-sampling × value codec.
  double compression_ratio() const {
    return ratio_or_one(bytes_raw, bytes_stored);
  }

  /// Reduction over sealed data only: sealed-ingested vs stored. Unlike
  /// reduction(), the unsealed hot tail does not inflate the numerator.
  double sealed_reduction() const {
    return ratio_or_one(sealed_ingested_samples, stored_samples);
  }
};

/// Full externalized state of one stream — the unit the storage tier
/// flushes into segments and restores on recovery. `chunks` may be only a
/// tail slice of the stream's sealed chunks (delta flush): `chunks_before`
/// counts the omitted prefix, already durable in earlier segments.
struct StreamSnapshot {
  std::string name;
  double collection_rate_hz = 0.0;
  double t0 = 0.0;
  double hot_t0 = 0.0;
  std::uint64_t generation = 0;
  std::size_t chunks_before = 0;
  std::vector<SealedChunk> chunks;
  std::vector<double> hot;  ///< unsealed tail, raw at the collection rate
  StreamStats stats;
};

/// One stream's captured read state inside a ReadSnapshot: sealed chunks
/// by reference (shared with the store — immutable once sealed), the hot
/// tail by copy (it mutates under the writer), and the metadata needed to
/// reconstruct, prune, and export without ever re-locking the store.
struct StreamView {
  std::string name;
  double collection_rate_hz = 0.0;
  double t0 = 0.0;
  double hot_t0 = 0.0;
  std::uint64_t generation = 0;
  std::size_t ingested = 0;
  /// Sealed chunks evicted from memory by the retention cap before this
  /// capture (export accounting: export_stream skip counts are absolute
  /// chunk indexes, so `skip >= chunks_trimmed` is required).
  std::size_t chunks_trimmed = 0;
  std::vector<SealedChunkRef> chunks;
  std::vector<double> hot;
  StreamStats stats;
};

/// An immutable view over a set of streams, acquired from
/// StripedRetentionStore::acquire_snapshot() — the store's only
/// reconstructing read path. Capture is brief (per stripe: chunk refs + a
/// hot-tail copy per stream, under the stripe lock); every read afterwards
/// — query(), export_stream(), find_meta() — is lock-free and unaffected
/// by concurrent ingest.
///
/// The captured chunk references are what keep those chunks alive: a
/// chunk the retention cap evicts while this snapshot is live is freed
/// when the snapshot is destroyed, and a chunk it never captured is not
/// held at all.
class ReadSnapshot {
 public:
  ReadSnapshot() = default;
  explicit ReadSnapshot(std::vector<StreamView> views)
      : views_(std::move(views)) {}

  std::size_t size() const { return views_.size(); }

  /// The captured streams, lexicographically sorted by name.
  const std::vector<StreamView>& views() const { return views_; }

  /// The captured view for `name`, or nullptr when the snapshot does not
  /// cover it (binary search).
  const StreamView* find(const std::string& name) const;

  /// Names of every captured stream, in lexicographic order.
  std::vector<std::string> stream_names() const;

  /// Metadata as of capture time; nullopt for names outside the snapshot.
  std::optional<StreamMeta> find_meta(const std::string& name) const;

  /// Reconstruct the half-open range [t_begin, t_end) on the stream's
  /// collection grid from what the store kept at capture time (sealed
  /// chunks re-sampled, the hot tail raw); lock-free. The result holds
  /// round((t_end - t_begin) * rate) points at t_begin + i/rate, all
  /// < t_end up to grid rounding. Inverted or empty ranges (t_begin >=
  /// t_end, or a span shorter than half a grid step) are clamped to a
  /// defined result: an empty series anchored at t_begin on the collection
  /// grid. Ranges beyond the ingested data hold the nearest stored value.
  /// Throws std::invalid_argument for names outside the snapshot.
  sig::RegularSeries query(const std::string& name, double t_begin,
                           double t_end) const;

  /// Externalize one captured stream (the storage tier's flush input),
  /// omitting the first `skip_chunks` sealed chunks (the delta-flush hook:
  /// chunks already durable in earlier segments are not copied again).
  /// Throws std::invalid_argument for names outside the snapshot and for
  /// a skip below the eviction-trimmed prefix.
  StreamSnapshot export_stream(const std::string& name,
                               std::size_t skip_chunks = 0) const;

 private:
  std::vector<StreamView> views_;  ///< sorted by name
};

/// Observer of a store's write path. The durable tier implements this to
/// write-ahead-log stream creation and every append batch before the store
/// mutates, so a crashed run replays to exactly the live store's state.
/// The store calls it from whichever thread ingests, under the stream's
/// stripe lock, so implementations must be thread-safe.
class IngestSink {
 public:
  virtual ~IngestSink() = default;
  virtual void on_create_stream(const std::string& name,
                                double collection_rate_hz, double t0) = 0;
  virtual void on_append(const std::string& name,
                         std::span<const double> values) = 0;
};

}  // namespace nyqmon::mon
