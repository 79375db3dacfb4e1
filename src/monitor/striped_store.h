// The retention store: the paper's a-posteriori policy (monitor/store.h),
// thread-safe and mutex-striped.
//
// The streaming runtime ingests hundreds of metric-device pairs from its
// worker threads, and nyqmond's reactors ingest client batches concurrently.
// A single store behind one mutex would serialize that fan-in, so streams
// are partitioned across S stripes by a stable hash of the stream name;
// each stripe holds its own lock, stream map and ingest-sink pointer, and
// unrelated streams ingest in parallel. The final store state is
// independent of thread interleaving because every stream is written by
// exactly one producer and stripe assignment depends only on the name.
// Reconstructing reads go through acquire_snapshot().
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "monitor/store.h"

namespace nyqmon::mon {

class StripedRetentionStore {
 public:
  /// Throws std::invalid_argument unless config.chunk_samples >= 32,
  /// config.headroom >= 1 and stripes >= 1.
  explicit StripedRetentionStore(StoreConfig config = {},
                                 std::size_t stripes = 16);

  /// Create a stream ingesting at `collection_rate_hz` starting at t0.
  /// Stream names must be unique. A rate outside [1e-9, 1e6] Hz (NaN
  /// included) or a t0 that is not finite throws std::invalid_argument and
  /// creates nothing: restore_streams refuses the same grids, so every
  /// stream the store holds survives its own checkpoint.
  void create_stream(const std::string& name, double collection_rate_hz,
                     double t0 = 0.0);

  /// Append the next readings of a stream (in grid order) as one batch:
  /// one lock acquisition and, when non-empty, one generation bump.
  void append_series(const std::string& name, std::span<const double> values);

  /// Append `values` to `name`, first creating it at (collection_rate_hz,
  /// t0) when it does not exist yet, all under one stripe lock — so two
  /// concurrent first writers of a stream never both try to create it.
  /// Returns the stream's ingested sample count after the append. A new
  /// stream on a grid create_stream refuses throws and creates nothing.
  std::size_t create_or_append(const std::string& name,
                               double collection_rate_hz, double t0,
                               std::span<const double> values);

  StreamStats stats(const std::string& name) const;

  /// Grid/span/generation metadata for one stream (see StreamMeta), or
  /// nullopt for an unknown name.
  std::optional<StreamMeta> find_meta(const std::string& name) const;

  /// Metadata for every stream across stripes, lexicographically sorted by
  /// name. The serving layer's selector match + prune pass; cheap relative
  /// to reconstruction, but it does take every stripe lock in turn, so the
  /// snapshot is per-stripe (not globally) atomic under concurrent ingest.
  std::vector<std::pair<std::string, StreamMeta>> list_meta() const;

  /// All stream names across stripes, lexicographically sorted.
  std::vector<std::string> stream_names() const;

  /// Aggregate ingest/retention counters across every stream.
  StoreRollup rollup() const;

  std::size_t streams() const;

  const StoreConfig& config() const { return config_; }

  /// Attach a durability sink (nullptr detaches). Every later
  /// create_stream/append goes through the sink *before* the store
  /// mutates, under the owning stripe's lock and from whichever thread
  /// ingests — it must be thread-safe. restore_streams never notifies:
  /// recovery must not re-log itself.
  void set_ingest_sink(IngestSink* sink);

  /// Recreate streams from full snapshots (chunks_before == 0), all or
  /// none: every owning stripe is locked, in ascending index order, for
  /// the whole call. When any of the names already exists, nothing is
  /// restored and those names are returned; otherwise the result is empty.
  /// Before any lock is taken, throws std::invalid_argument naming the
  /// stream, and restores nothing, when a snapshot holds what this store's
  /// seal_chunk could never have written: a grid create_stream refuses, a
  /// non-finite hot_t0, a hot tail of chunk_samples values or more, or a
  /// chunk with a non-finite t0 or dt, a dt <= 0, no values, more than
  /// chunk_samples values, or a span of more than chunk_samples
  /// collection-grid points.
  /// Queries against a restored stream are bit-identical to the store the
  /// snapshot was taken from, and its generation counter continues
  /// monotonically. The storage tier's recover and nyqmond's HANDOFF
  /// import both restore through here.
  std::vector<std::string> restore_streams(
      std::map<std::string, StreamSnapshot> snapshots);

  /// Acquire an immutable view over every stream (see ReadSnapshot in
  /// monitor/store.h). Capture takes each stripe lock in turn — per-stripe
  /// (not globally) atomic under concurrent ingest, the same consistency
  /// list_meta() offers — and copies each stream's sealed-chunk
  /// references, which keep those chunks alive for the handle's lifetime;
  /// every read on the handle afterwards is lock-free. This is the only
  /// way to reconstruct a stream: the query engine, HANDOFF export and the
  /// storage flush all read through it, so reconstruction never blocks
  /// ingest.
  ReadSnapshot acquire_snapshot() const;

  /// Snapshot covering only `names` (unknown names are skipped). Stripes
  /// that own none of the names are not locked at all.
  ReadSnapshot acquire_snapshot(std::span<const std::string> names) const;

 private:
  struct Stream {
    double collection_rate_hz = 0.0;
    double t0 = 0.0;
    std::size_t ingested = 0;
    std::vector<double> hot;  ///< unsealed tail, at the collection rate
    double hot_t0 = 0.0;
    std::vector<SealedChunkRef> chunks;
    std::size_t chunks_trimmed = 0;  ///< evicted by the retention cap
    StreamStats stats;
    std::uint64_t generation = 0;  ///< bumped per non-empty append batch
  };

  using StreamMap = std::map<std::string, Stream>;

  struct Stripe {
    mutable std::mutex mu;  ///< guards the other two members
    StreamMap streams;
    IngestSink* sink = nullptr;
  };

  std::size_t stripe_index(const std::string& name) const;
  Stripe& stripe_of(const std::string& name) {
    return *stripes_[stripe_index(name)];
  }
  const Stripe& stripe_of(const std::string& name) const {
    return *stripes_[stripe_index(name)];
  }

  // The stream logic. Each helper runs with the stripe's lock held.
  StreamMap::iterator create_locked(Stripe& stripe, const std::string& name,
                                    double collection_rate_hz, double t0);
  void append_locked(Stripe& stripe, StreamMap::iterator it,
                     std::span<const double> values);
  void seal_chunk(Stream& s);
  static StreamView view_of(const std::string& name, const Stream& s);

  StoreConfig config_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace nyqmon::mon
