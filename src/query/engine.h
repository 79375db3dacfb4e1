// QueryEngine — the downsample-aware read path over retained fleet data.
//
// The paper's a-posteriori mode stores each stream re-sampled at its
// Nyquist rate; this engine is what makes that storage *servable* at
// fleet scale. One QuerySpec fans out over every stream whose ID matches
// the selector: the store metadata pass prunes streams whose ingested
// span misses the query range (no reconstruction spent on them), the
// survivors are reconstructed in parallel through the store's
// band-limited query path, aligned onto the requested output grid by
// linear interpolation, transformed per stream, and aggregated per output
// timestamp. A sharded LRU cache fronts the whole pipeline, invalidated
// by the store's per-stream write-generation counters.
//
// Determinism contract (mirrors engine/engine.h): results are
// bit-identical whatever the per-query worker count and whether the
// result came from the cache or a fresh execution. Matched streams are
// processed into pre-allocated slots in lexicographic ID order and every
// cross-stream reduction iterates in that order, so no floating-point sum
// ever depends on thread interleaving.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "monitor/striped_store.h"
#include "query/cache.h"
#include "query/spec.h"

namespace nyqmon::qry {

struct QueryEngineConfig {
  /// Worker threads per query for stream reconstruction (0 = hardware
  /// concurrency). Client threads are the caller's business; each run()
  /// fans out over matched streams with this many workers.
  std::size_t workers = 0;
  bool cache_enabled = true;
  /// Total cached results and the lock-sharding of the cache.
  std::size_t cache_capacity = 256;
  std::size_t cache_shards = 8;
};

/// Monotonic serving counters (aggregated over the engine's lifetime).
struct QueryEngineStats {
  std::uint64_t queries = 0;
  /// Selector/prune accounting, summed over executed (non-cache-hit)
  /// queries: how many streams the metadata pass considered, how many
  /// matched the selector, and how many of those were range-pruned vs
  /// actually reconstructed (matched == pruned + reconstructed).
  std::uint64_t streams_considered = 0;
  std::uint64_t streams_matched = 0;
  std::uint64_t streams_pruned = 0;
  std::uint64_t streams_reconstructed = 0;
  CacheStats cache;
};

class QueryEngine {
 public:
  /// The store must outlive the engine. Concurrent run() calls are safe,
  /// including against concurrent ingest into the store.
  explicit QueryEngine(const mon::StripedRetentionStore& store,
                       QueryEngineConfig config = {});

  /// Execute (or serve from cache) one validated spec.
  QueryResponse run(const QuerySpec& spec);

  QueryEngineStats stats() const;

  const QueryEngineConfig& config() const { return config_; }

 private:
  class StageClock;

  std::shared_ptr<const QueryResult> execute(
      const QuerySpec& spec,
      const std::vector<std::pair<std::string, mon::StreamMeta>>& matched_meta,
      StageClock& clock);

  const mon::StripedRetentionStore& store_;
  QueryEngineConfig config_;
  ShardedResultCache cache_;
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> streams_considered_{0};
  std::atomic<std::uint64_t> streams_matched_{0};
  std::atomic<std::uint64_t> streams_pruned_{0};
  std::atomic<std::uint64_t> streams_reconstructed_{0};
};

}  // namespace nyqmon::qry
