#include "storage/manager.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <system_error>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/segment.h"
#include "util/check.h"

namespace nyqmon::sto {

namespace fs = std::filesystem;

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "nyqmon-storage v1";

double elapsed_s(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

bool has_affix(const std::string& name, const char* prefix,
               const char* suffix) {
  const std::string p(prefix);
  const std::string s(suffix);
  return name.size() > p.size() + s.size() && name.rfind(p, 0) == 0 &&
         name.compare(name.size() - s.size(), s.size(), s) == 0;
}

}  // namespace

StorageManager::StorageManager(StorageConfig config)
    : config_(std::move(config)) {
  NYQMON_CHECK_MSG(!config_.dir.empty(), "StorageConfig.dir must be set");
  fs::create_directories(config_.dir);
  if (config_.truncate_existing || !fs::exists(path_of(kManifestName))) {
    init_fresh_layout();
  } else {
    read_manifest();
    for (const auto& seg : manifest_.segments) {
      std::error_code ec;
      const auto size = fs::file_size(path_of(seg), ec);
      if (!ec) segment_bytes_ += size;
    }
    // Attach mode: the WAL may have a torn tail and the segments unknown
    // contents — recover() must run before any ingest or flush.
  }
}

StorageManager::~StorageManager() {
  try {
    sync();
  } catch (...) {
    // Destructor best-effort; the periodic syncs already bounded the loss.
  }
}

std::string StorageManager::path_of(const std::string& file) const {
  return config_.dir + "/" + file;
}

std::string StorageManager::seq_name(const char* prefix, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%06" PRIu64 "%s", prefix,
                manifest_.next_seq++, suffix);
  return buf;
}

void StorageManager::init_fresh_layout() {
  // Drop any previous generation's files we recognize; leave foreign files.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name == kManifestName || name == std::string(kManifestName) + ".tmp" ||
        has_affix(name, "seg-", ".seg") || has_affix(name, "wal-", ".log"))
      fs::remove(entry.path(), ec);
  }
  manifest_ = Manifest{};
  manifest_.next_seq = 1;
  manifest_.wal = seq_name("wal-", ".log");
  WriteAheadLog::create(path_of(manifest_.wal));
  write_manifest_locked();
  wal_ = std::make_unique<WriteAheadLog>(path_of(manifest_.wal),
                                         config_.wal_sync_interval_batches);
  recovered_ = true;
}

void StorageManager::write_manifest_locked() {
  std::ostringstream os;
  os << kManifestHeader << '\n';
  os << "next " << manifest_.next_seq << '\n';
  os << "wal " << manifest_.wal << '\n';
  if (manifest_.geometry) {
    const StoreGeometry& g = *manifest_.geometry;
    char buf[96];
    os << "chunk_samples " << g.chunk_samples << '\n';
    std::snprintf(buf, sizeof(buf), "headroom %.17g\n", g.headroom);
    os << buf;
    // The full sealing recipe: estimator settings change chunk re-sampling,
    // so recovery must verify them too (%.17g round-trips doubles exactly).
    std::snprintf(buf, sizeof(buf), "est_energy_cutoff %.17g\n",
                  g.estimator.energy_cutoff);
    os << buf;
    os << "est_detrend " << static_cast<int>(g.estimator.detrend) << '\n';
    os << "est_window " << static_cast<int>(g.estimator.window) << '\n';
    os << "est_welch " << g.estimator.welch_segments << '\n';
    std::snprintf(buf, sizeof(buf), "est_aliased_frac %.17g\n",
                  g.estimator.aliased_bin_fraction);
    os << buf;
    os << "est_min_samples " << g.estimator.min_samples << '\n';
  }
  for (const auto& seg : manifest_.segments) os << "segment " << seg << '\n';
  const std::string text = os.str();
  write_file_atomic(
      path_of(kManifestName),
      std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                text.size()));
}

void StorageManager::read_manifest() {
  const std::vector<std::uint8_t> bytes = read_file(path_of(kManifestName));
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  std::string line;
  NYQMON_CHECK_MSG(std::getline(is, line) && line == kManifestHeader,
                   "unrecognized manifest in " + config_.dir);
  manifest_ = Manifest{};
  StoreGeometry geom;
  bool have_chunk = false;
  bool have_headroom = false;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "next") {
      ls >> manifest_.next_seq;
    } else if (key == "wal") {
      ls >> manifest_.wal;
    } else if (key == "segment") {
      std::string name;
      ls >> name;
      manifest_.segments.push_back(name);
    } else if (key == "chunk_samples") {
      ls >> geom.chunk_samples;
      have_chunk = true;
    } else if (key == "headroom") {
      ls >> geom.headroom;
      have_headroom = true;
    } else if (key == "est_energy_cutoff") {
      ls >> geom.estimator.energy_cutoff;
    } else if (key == "est_detrend") {
      int v = 0;
      ls >> v;
      geom.estimator.detrend = static_cast<nyq::DetrendMode>(v);
    } else if (key == "est_window") {
      int v = 0;
      ls >> v;
      geom.estimator.window = static_cast<dsp::WindowType>(v);
    } else if (key == "est_welch") {
      ls >> geom.estimator.welch_segments;
    } else if (key == "est_aliased_frac") {
      ls >> geom.estimator.aliased_bin_fraction;
    } else if (key == "est_min_samples") {
      ls >> geom.estimator.min_samples;
    }
    // Unknown keys: forward-compatible skip.
  }
  NYQMON_CHECK_MSG(!manifest_.wal.empty(),
                   "manifest names no WAL in " + config_.dir);
  if (have_chunk && have_headroom) manifest_.geometry = geom;
}

void StorageManager::remove_orphans_locked() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    const bool known =
        name == kManifestName || name == manifest_.wal ||
        std::find(manifest_.segments.begin(), manifest_.segments.end(),
                  name) != manifest_.segments.end();
    if (known) continue;
    if (name == std::string(kManifestName) + ".tmp" ||
        has_affix(name, "seg-", ".seg") || has_affix(name, "wal-", ".log"))
      fs::remove(entry.path(), ec);
  }
}

void StorageManager::on_create_stream(const std::string& name,
                                      double collection_rate_hz, double t0) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  NYQMON_CHECK_MSG(recovered_ && wal_ != nullptr,
                   "attach-mode StorageManager: recover() before ingest");
  wal_->append_create(name, collection_rate_hz, t0);
}

void StorageManager::on_append(const std::string& name,
                               std::span<const double> values) {
  std::lock_guard<std::mutex> lock(wal_mu_);
  NYQMON_CHECK_MSG(recovered_ && wal_ != nullptr,
                   "attach-mode StorageManager: recover() before ingest");
  wal_->append_batch(name, values);
}

void StorageManager::sync() {
  std::lock_guard<std::mutex> lock(wal_mu_);
  if (wal_) wal_->sync();
}

void StorageManager::record_geometry(const mon::StoreConfig& config) {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  NYQMON_CHECK_MSG(recovered_,
                   "attach-mode StorageManager: recover() before "
                   "record_geometry()");
  if (manifest_.geometry && manifest_.geometry->matches(config)) return;
  manifest_.geometry = StoreGeometry::of(config);
  write_manifest_locked();
}

FlushStats StorageManager::flush(const mon::StripedRetentionStore& store) {
  NYQMON_TRACE_SPAN("flush", "storage");
  const auto t_start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(manifest_mu_);
  NYQMON_CHECK_MSG(recovered_,
                   "attach-mode StorageManager: recover() before flush()");
  FlushStats out;
  // One snapshot acquisition for the whole flush: stripe locks are held
  // only during the brief capture, and the (comparatively slow) segment
  // encoding below runs against the immutable captured view.
  const mon::ReadSnapshot snapshot = store.acquire_snapshot();
  const std::vector<std::string> names = snapshot.stream_names();
  if (names.empty()) {
    out.skipped = true;
    return out;
  }

  SegmentWriter writer;
  std::vector<std::pair<std::string, std::size_t>> new_counts;
  new_counts.reserve(names.size());
  for (const auto& name : names) {
    const auto it = flushed_chunks_.find(name);
    const std::size_t skip = it == flushed_chunks_.end() ? 0 : it->second;
    const mon::StreamSnapshot snap = snapshot.export_stream(name, skip);
    new_counts.emplace_back(name, skip + snap.chunks.size());
    writer.add_stream(snap);
  }

  // 1. The immutable segment reaches disk (and the platters) first.
  const std::string seg = seq_name("seg-", ".seg");
  {
    File f = File::create(path_of(seg));
    f.write(writer.bytes());
    f.sync();
    f.close();
  }

  // 2. A fresh WAL: everything the old one protected is in the segment now.
  const std::string new_wal = seq_name("wal-", ".log");
  WriteAheadLog::create(path_of(new_wal));

  // 3. Commit point: one atomic manifest update names both. A crash before
  //    this line leaves the old manifest + old WAL (the new files are
  //    orphans, cleaned at next open); a crash after it is the new state.
  const std::string old_wal = manifest_.wal;
  manifest_.segments.push_back(seg);
  manifest_.wal = new_wal;
  manifest_.geometry = StoreGeometry::of(store.config());
  write_manifest_locked();

  // 4. Swap the live WAL and drop the superseded file.
  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    if (wal_) {
      counters_.wal_records += wal_->batches();
      counters_.wal_syncs += wal_->syncs();
    }
    wal_ = std::make_unique<WriteAheadLog>(
        path_of(new_wal), config_.wal_sync_interval_batches);
  }
  std::error_code ec;
  fs::remove(path_of(old_wal), ec);

  for (const auto& [name, count] : new_counts) flushed_chunks_[name] = count;
  segment_bytes_ += writer.bytes().size();
  ++counters_.flushes;

  out.streams = writer.stats().streams;
  out.chunks = writer.stats().chunks;
  out.samples = writer.stats().samples;
  out.bytes_written = writer.bytes().size();
  out.seconds = elapsed_s(t_start);
  NYQMON_OBS_RECORD("nyqmon_storage_flush_ns", out.seconds * 1e9);
  NYQMON_OBS_COUNT("nyqmon_storage_flush_bytes_total", out.bytes_written);

  if (manifest_.segments.size() > config_.compact_min_segments)
    compact_locked();
  return out;
}

RecoveryStats StorageManager::recover(mon::StripedRetentionStore& store) {
  const auto t_start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(manifest_mu_);
  NYQMON_CHECK_MSG(store.streams() == 0, "recover() needs an empty store");
  // The replay below drives the store's normal ingest path; make sure it
  // cannot echo into a sink (re-logging recovery would double the WAL).
  store.set_ingest_sink(nullptr);
  if (manifest_.geometry) {
    NYQMON_CHECK_MSG(
        manifest_.geometry->matches(store.config()),
        "store geometry (chunk_samples/headroom/estimator) differs from the "
        "manifest; WAL replay would re-seal chunks differently");
  }

  RecoveryStats out;
  std::map<std::string, mon::StreamSnapshot> streams;
  std::map<std::string, std::size_t> last_header_seg;
  for (std::size_t i = 0; i < manifest_.segments.size(); ++i) {
    try {
      const SegmentReadStats s =
          read_segment(path_of(manifest_.segments[i]), streams);
      out.crc_skipped_blocks += s.crc_skipped_blocks;
      for (const auto& name : s.header_streams) last_header_seg[name] = i;
      ++out.segments;
    } catch (const std::runtime_error&) {
      // Missing/unreadable file: degrade past it with a counted warning,
      // same contract as per-block corruption. Streams whose newest header
      // lived here fall out via the stale-stream guard below.
      ++out.segments_unreadable;
    }
  }

  // Every flush writes every stream a header, so in a healthy layout each
  // stream's newest header lives in the last segment. A stream whose last
  // good header is older lost its newest header to corruption and restored
  // to the previous flush's (consistent but stale) epoch — WAL records
  // belong to the newest epoch and must not be grafted onto it.
  std::set<std::string> stale;
  if (!manifest_.segments.empty()) {
    const std::size_t last = manifest_.segments.size() - 1;
    for (const auto& [name, snap] : streams) {
      const auto it = last_header_seg.find(name);
      if (it == last_header_seg.end() || it->second != last)
        stale.insert(name);
    }
  }
  out.stale_streams = stale.size();

  // One stream at a time: the store was checked empty above, so no name
  // can collide, and a stream the store refuses (one its seal_chunk could
  // not have written: crafted bytes, or an earlier build's files) is
  // dropped and counted, like a corrupt block, instead of failing the
  // whole directory. WAL appends to it are dropped below.
  for (auto& [name, snap] : streams) {
    const std::size_t chunks = snap.chunks.size();
    const std::size_t missing =
        snap.stats.chunks > chunks ? snap.stats.chunks - chunks : 0;
    std::map<std::string, mon::StreamSnapshot> one;
    one.emplace(name, std::move(snap));
    try {
      NYQMON_ENSURE(store.restore_streams(std::move(one)).empty());
    } catch (const std::invalid_argument&) {
      ++out.streams_refused;
      continue;
    }
    ++out.streams;
    out.chunks += chunks;
    out.chunks_missing += missing;
    flushed_chunks_[name] = chunks;
  }

  // WAL replay through the normal ingest path: re-sealing is deterministic,
  // so the store converges to exactly the pre-crash state (minus any torn
  // tail, which is truncated so the log can keep appending).
  const WalReplayStats wal_stats = WriteAheadLog::replay(
      path_of(manifest_.wal), [&](const WalRecord& rec) {
        if (rec.type == WalRecord::Type::kCreate) {
          if (store.find_meta(rec.stream)) return;
          try {
            store.create_stream(rec.stream, rec.collection_rate_hz, rec.t0);
          } catch (const std::invalid_argument&) {
            ++out.streams_refused;  // a grid the store does not take
          }
        } else if (stale.count(rec.stream) != 0 ||
                   !store.find_meta(rec.stream)) {
          // Appends to stale or lost streams are dropped (counted), never
          // grafted onto wrong grid positions.
          ++out.wal_records_dropped;
        } else {
          store.append_series(rec.stream, rec.values);
        }
      });
  out.wal_records_replayed = wal_stats.records_replayed;
  out.wal_records_truncated = wal_stats.records_truncated;
  out.wal_bytes_replayed = wal_stats.bytes_replayed;

  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    wal_ = std::make_unique<WriteAheadLog>(
        path_of(manifest_.wal), config_.wal_sync_interval_batches);
  }
  remove_orphans_locked();
  counters_.crc_skipped_blocks += out.crc_skipped_blocks;
  counters_.wal_records_truncated += out.wal_records_truncated;
  recovered_ = true;
  out.seconds = elapsed_s(t_start);
  return out;
}

std::size_t StorageManager::compact_locked() {
  if (manifest_.segments.size() < 2) return 0;
  NYQMON_OBS_TIMER("nyqmon_storage_compact_ns");
  NYQMON_TRACE_SPAN("compact", "storage");
  std::map<std::string, mon::StreamSnapshot> streams;
  std::size_t skipped = 0;
  for (const auto& seg : manifest_.segments) {
    try {
      skipped += read_segment(path_of(seg), streams).crc_skipped_blocks;
    } catch (const std::runtime_error&) {
      // An unreadable input makes folding lossy (the rewrite would delete
      // the one copy of whatever it held): leave the layout as-is and let
      // recover() degrade with its counted warnings instead.
      return 0;
    }
  }

  SegmentWriter writer;
  for (const auto& [name, snap] : streams) writer.add_stream(snap);
  const std::string seg = seq_name("seg-", ".seg");
  {
    File f = File::create(path_of(seg));
    f.write(writer.bytes());
    f.sync();
    f.close();
  }

  std::vector<std::string> old = std::move(manifest_.segments);
  manifest_.segments = {seg};
  write_manifest_locked();
  std::error_code ec;
  for (const auto& name : old) fs::remove(path_of(name), ec);

  segment_bytes_ = writer.bytes().size();
  ++counters_.compactions;
  NYQMON_OBS_COUNT("nyqmon_storage_compactions_total", 1);
  counters_.crc_skipped_blocks += skipped;
  return old.size();
}

std::size_t StorageManager::compact() {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  return compact_locked();
}

StorageStats StorageManager::stats() const {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  StorageStats s = counters_;
  s.segments = manifest_.segments.size();
  s.segment_bytes = segment_bytes_;
  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    if (wal_) {
      s.wal_bytes = wal_->bytes();
      s.wal_records += wal_->batches();
      s.wal_syncs += wal_->syncs();
    }
  }
  return s;
}

std::optional<StoreGeometry> StorageManager::manifest_geometry() const {
  std::lock_guard<std::mutex> lock(manifest_mu_);
  return manifest_.geometry;
}

}  // namespace nyqmon::sto
