// Sharded LRU result cache for the query engine.
//
// Serving workloads repeat: dashboards re-issue the same selector/window
// specs every refresh, so the engine memoizes whole QueryResults. Entries
// are keyed by the spec's canonical string and carry a fingerprint of the
// matched streams' write-generation counters — any ingest into a matched
// stream changes the fingerprint, so a lookup that finds the key but not
// the fingerprint drops the stale entry and reports an invalidation
// instead of serving pre-ingest data. Keys are sharded across independent
// LRU maps (own mutex each) so concurrent clients don't serialize on one
// cache lock, mirroring the striped store underneath.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/spec.h"

namespace nyqmon::qry {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;         ///< key absent
  std::uint64_t invalidations = 0;  ///< key present but fingerprint stale
  std::uint64_t evictions = 0;      ///< LRU pressure drops
  std::size_t entries = 0;          ///< current resident results

  double hit_rate() const {
    const std::uint64_t total = hits + misses + invalidations;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class ShardedResultCache {
 public:
  /// `capacity` is the total entry budget, split evenly across `shards`
  /// (each shard holds at least one entry).
  explicit ShardedResultCache(std::size_t capacity = 256,
                              std::size_t shards = 8);

  /// The cached result for `key`, iff its fingerprint still matches;
  /// refreshes LRU recency. A present-but-stale entry is erased and
  /// counted as an invalidation. Returns nullptr on miss/stale.
  std::shared_ptr<const QueryResult> lookup(const std::string& key,
                                            std::uint64_t fingerprint);

  /// Insert or replace `key`; evicts the shard's LRU tail when full.
  void insert(const std::string& key, std::uint64_t fingerprint,
              std::shared_ptr<const QueryResult> value);

  /// Aggregate counters across shards.
  CacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    std::uint64_t fingerprint = 0;
    std::shared_ptr<const QueryResult> value;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    CacheStats stats;
  };

  Shard& shard_of(const std::string& key);

  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace nyqmon::qry
