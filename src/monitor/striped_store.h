// The retention store nyqmon builds: thread-safe and mutex-striped over
// RetentionStore (monitor/store.h, the paper's a-posteriori policy).
//
// The fleet engine drives hundreds of metric-device pairs concurrently and
// every pair ingests its reconstruction into shared retention. A single
// store behind one mutex would serialize the fan-in, so streams are
// partitioned across S independent RetentionStore stripes by a stable hash
// of the stream name; each stripe has its own lock and unrelated streams
// ingest in parallel. The final store state is independent of thread
// interleaving because every stream is written by exactly one producer and
// stripe assignment depends only on the name. Reconstructing reads go
// through acquire_snapshot().
#pragma once

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
  explicit StripedRetentionStore(StoreConfig config = {},
                                 std::size_t stripes = 16);

  /// Thread-safe equivalents of the RetentionStore stream API.
  void create_stream(const std::string& name, double collection_rate_hz,
                     double t0 = 0.0);
  void append(const std::string& name, double value);
  /// Bulk ingest: one lock acquisition for the whole series.
  void append_series(const std::string& name, std::span<const double> values);

  /// Append `values` to `name`, first creating it at (collection_rate_hz,
  /// t0) when it does not exist yet, all under one stripe lock — so two
  /// concurrent first writers of a stream never both try to create it.
  /// Returns the stream's ingested sample count after the append. A new
  /// stream with collection_rate_hz <= 0 throws and creates nothing.
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

  /// Aggregate ingest/retention counters across every stripe.
  StoreRollup rollup() const;

  /// Storage bill across every stripe.
  Cost storage_cost() const;

  std::size_t streams() const;
  std::size_t stripes() const { return stripes_.size(); }

  /// The (shared) per-stripe store configuration.
  const StoreConfig& config() const;

  /// Attach a durability sink to every stripe (nullptr detaches). The sink
  /// is invoked under the owning stripe's lock, from whichever thread
  /// ingests — it must be thread-safe.
  void set_ingest_sink(IngestSink* sink);

  /// Thread-safe equivalent of RetentionStore::restore_stream (see
  /// monitor/store.h) — the storage tier's recover hook.
  void restore_stream(StreamSnapshot snapshot);

  /// Acquire an immutable, epoch-stamped view over every stream (see
  /// ReadSnapshot in monitor/store.h). Capture takes each stripe lock in
  /// turn — per-stripe (not globally) atomic under concurrent ingest, the
  /// same consistency list_meta() offers — and pins one epoch in the
  /// store-wide registry; every read on the handle afterwards is
  /// lock-free. This is the only way to reconstruct a stream: the query
  /// engine, HANDOFF export and the storage flush all read through it, so
  /// reconstruction never blocks ingest.
  ReadSnapshot acquire_snapshot() const;

  /// Snapshot covering only `names` (unknown names are skipped). Stripes
  /// that own none of the names are not locked at all.
  ReadSnapshot acquire_snapshot(std::span<const std::string> names) const;

  /// The epoch registry shared by every stripe (snapshot lifetime and
  /// deferred-reclamation introspection; tests and metrics).
  const std::shared_ptr<EpochRegistry>& epoch_registry() const {
    return epochs_;
  }

 private:
  struct Stripe {
    mutable std::mutex mu;
    RetentionStore store;

    Stripe(const StoreConfig& config, std::shared_ptr<EpochRegistry> epochs)
        : store(config, std::move(epochs)) {}
  };

  Stripe& stripe_of(const std::string& name);
  const Stripe& stripe_of(const std::string& name) const;

  std::vector<std::unique_ptr<Stripe>> stripes_;
  /// One registry across all stripes so a fleet snapshot pins one epoch.
  std::shared_ptr<EpochRegistry> epochs_ = std::make_shared<EpochRegistry>();
};

}  // namespace nyqmon::mon
