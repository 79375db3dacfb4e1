// StorageManager — the durable tier under the retention store.
//
// Owns a directory with a three-part layout (canonical spec, including
// the MANIFEST line format and durability contract: docs/FORMATS.md):
//   MANIFEST        text file naming the live segments (in logical order),
//                   the active WAL, the next file sequence number, and the
//                   store geometry (chunk_samples/headroom) — committed
//                   atomically (tmp + rename + dir fsync);
//   seg-NNNNNN.seg  immutable compressed segments (storage/segment.h);
//   wal-NNNNNN.log  the active write-ahead log (storage/wal.h).
//
// Lifecycle:
//   * Attached as the store's IngestSink, it WAL-logs stream creations and
//     every append batch — a mid-run crash loses at most the records after
//     the last fsync (wal_sync_interval_batches).
//   * flush() checkpoints the store: chunks sealed since the last flush are
//     codec-encoded into a new delta segment, a fresh WAL replaces the old
//     one, and the manifest commit makes the whole step atomic. Requires
//     quiesced ingest (call it post-run or between batches; concurrent
//     appends may fall between the snapshot and the WAL swap).
//   * recover() rebuilds a store from the manifest: segments are merged in
//     order (CRC-bad blocks skipped with a counted warning), then the WAL
//     is replayed through the store's normal ingest path — chunk re-sealing
//     is deterministic, so the result is bit-identical to the live store at
//     the equivalent point. The torn tail, if any, is truncated so the log
//     can continue appending. Generation counters resume monotonically.
//   * Compaction folds all live segments into one (chunk order preserved),
//     inline at the end of a flush that leaves more than
//     `compact_min_segments` live.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "monitor/store.h"
#include "monitor/striped_store.h"
#include "storage/wal.h"

namespace nyqmon::sto {

struct StorageConfig {
  /// Directory of the manifest/segments/WAL. Must be non-empty.
  std::string dir;
  /// Wipe any existing nyqmon layout in `dir` (fresh generation) instead of
  /// attaching to it. Attach mode requires recover() before any ingest.
  bool truncate_existing = false;
  /// fsync the WAL every N appended records (1 = every record). The
  /// durability window: a crash loses at most the unsynced records.
  std::size_t wal_sync_interval_batches = 64;
  /// Fold segments into one when a flush leaves more than this many live.
  std::size_t compact_min_segments = 8;
};

/// Store geometry recorded in the manifest (at manager attach via
/// record_geometry(), and refreshed on every flush). WAL replay re-seals
/// chunks — the recovering store must be built with the same chunk size,
/// headroom, AND estimator settings for bit-identical recovery; recover()
/// enforces the match against everything recorded here.
struct StoreGeometry {
  std::size_t chunk_samples = 0;
  double headroom = 0.0;
  nyq::EstimatorConfig estimator;

  static StoreGeometry of(const mon::StoreConfig& config) {
    return {config.chunk_samples, config.headroom, config.estimator};
  }

  /// Apply the recorded geometry onto a StoreConfig (the cold-start hook).
  void apply(mon::StoreConfig& config) const {
    config.chunk_samples = chunk_samples;
    config.headroom = headroom;
    config.estimator = estimator;
  }

  bool matches(const mon::StoreConfig& config) const {
    const auto& e = config.estimator;
    return chunk_samples == config.chunk_samples &&
           headroom == config.headroom &&
           estimator.energy_cutoff == e.energy_cutoff &&
           estimator.detrend == e.detrend && estimator.window == e.window &&
           estimator.welch_segments == e.welch_segments &&
           estimator.aliased_bin_fraction == e.aliased_bin_fraction &&
           estimator.min_samples == e.min_samples;
  }
};

struct FlushStats {
  std::size_t streams = 0;
  std::size_t chunks = 0;        ///< chunk blocks written by this flush
  std::uint64_t samples = 0;     ///< samples represented (chunks + tails)
  std::uint64_t bytes_written = 0;  ///< size of the new segment file
  double seconds = 0.0;
  bool skipped = false;  ///< store had no streams; nothing written
};

struct RecoveryStats {
  std::size_t segments = 0;  ///< segments read successfully
  /// Manifest-listed segments that were missing or unreadable as files
  /// (bad magic, I/O error). Recovery degrades past them — streams whose
  /// newest state lived there surface via stale_streams/chunks_missing.
  std::size_t segments_unreadable = 0;
  std::size_t streams = 0;
  std::size_t chunks = 0;
  /// Corrupt segment blocks skipped (the counted warning).
  std::size_t crc_skipped_blocks = 0;
  /// Streams whose merged chunk count fell short of the header's cumulative
  /// count — the visible footprint of skipped chunk blocks.
  std::size_t chunks_missing = 0;
  /// Streams whose newest header block was corrupt: they restored to the
  /// previous flush's (consistent, older) state, and their WAL records —
  /// which belong to the newest epoch — were dropped rather than grafted
  /// onto stale grid positions.
  std::size_t stale_streams = 0;
  std::size_t wal_records_replayed = 0;
  std::size_t wal_records_dropped = 0;  ///< appends to stale/lost streams
  std::size_t wal_records_truncated = 0;  ///< torn tail dropped (0 or 1)
  std::uint64_t wal_bytes_replayed = 0;
  double seconds = 0.0;
};

/// Monotonic counters over the manager's lifetime plus the current layout.
struct StorageStats {
  std::size_t segments = 0;
  std::uint64_t segment_bytes = 0;  ///< on-disk bytes across live segments
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_records = 0;  ///< appended through this manager
  std::uint64_t wal_syncs = 0;
  std::uint64_t flushes = 0;
  std::uint64_t compactions = 0;
  /// Raw bytes (8 × samples) represented by everything flushed so far vs
  /// the segment bytes holding them — the durable tier's compression view.
  std::uint64_t bytes_raw_flushed = 0;
  std::uint64_t crc_skipped_blocks = 0;     ///< seen by recover()/compact()
  std::uint64_t wal_records_truncated = 0;  ///< seen by recover()

  double disk_compression_ratio() const {
    return segment_bytes == 0 ? 1.0
                              : static_cast<double>(bytes_raw_flushed) /
                                    static_cast<double>(segment_bytes);
  }
};

class StorageManager final : public mon::IngestSink {
 public:
  explicit StorageManager(StorageConfig config);
  ~StorageManager() override;

  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  // mon::IngestSink — thread-safe (serialized on the WAL lock).
  void on_create_stream(const std::string& name, double collection_rate_hz,
                        double t0) override;
  void on_append(const std::string& name,
                 std::span<const double> values) override;

  /// Force-fsync the WAL (normally automatic per the sync interval).
  void sync();

  /// Record the writing store's geometry in the manifest *now*, before any
  /// flush — so a mid-run crash (the WAL's whole reason to exist) still
  /// recovers with verified seal boundaries. The streaming runtime calls
  /// this at construction; flush() refreshes it. No-op when unchanged.
  void record_geometry(const mon::StoreConfig& config);

  /// Checkpoint the store (see class comment). Quiesced ingest required.
  FlushStats flush(const mon::StripedRetentionStore& store);

  /// Rebuild `store` (which must be freshly constructed and empty) from the
  /// directory. Attach-mode managers must recover before any ingest.
  RecoveryStats recover(mon::StripedRetentionStore& store);

  /// Fold all live segments into one. Returns how many were folded (0 if
  /// fewer than two live segments).
  std::size_t compact();

  StorageStats stats() const;
  const StorageConfig& config() const { return config_; }
  const std::string& dir() const { return config_.dir; }

  /// Geometry recorded by the writing store's first flush; nullopt for a
  /// directory that has never been flushed. The cold-start hook: build the
  /// reading store's StoreConfig from this before recover().
  std::optional<StoreGeometry> manifest_geometry() const;

 private:
  struct Manifest {
    std::vector<std::string> segments;  ///< file names, logical order
    std::string wal;                    ///< active WAL file name
    std::uint64_t next_seq = 1;
    std::optional<StoreGeometry> geometry;
  };

  std::string path_of(const std::string& file) const;
  std::string seq_name(const char* prefix, const char* suffix);
  void write_manifest_locked();
  void read_manifest();
  void init_fresh_layout();
  void remove_orphans_locked();
  std::size_t compact_locked();

  StorageConfig config_;

  /// Guards the manifest, segment set, flushed-chunk bookkeeping, and
  /// lifetime counters. Lock order: manifest_mu_ before wal_mu_ (flush
  /// takes both); the ingest path takes only wal_mu_.
  mutable std::mutex manifest_mu_;
  Manifest manifest_;
  std::map<std::string, std::size_t> flushed_chunks_;
  std::uint64_t segment_bytes_ = 0;
  StorageStats counters_;
  /// Set once (fresh layout, or after recover()) before ingest can begin;
  /// atomic because the ingest path reads it under wal_mu_ only.
  std::atomic<bool> recovered_{false};

  mutable std::mutex wal_mu_;
  std::unique_ptr<WriteAheadLog> wal_;
};

}  // namespace nyqmon::sto
