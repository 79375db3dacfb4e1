#include "storage/wal.h"

#include <filesystem>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/crc32.h"
#include "util/check.h"

namespace nyqmon::sto {

void WriteAheadLog::create(const std::string& path) {
  File f = File::create(path);
  f.write(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kWalMagic), sizeof(kWalMagic)));
  f.sync();
  f.close();
}

WriteAheadLog::WriteAheadLog(std::string path,
                             std::size_t sync_interval_batches)
    : path_(std::move(path)),
      file_(File::append(path_)),
      sync_interval_(sync_interval_batches == 0 ? 1 : sync_interval_batches) {
  NYQMON_CHECK_MSG(file_.bytes_written() >= sizeof(kWalMagic),
                   "not a WAL file: " + path_);
}

void WriteAheadLog::append_record(WalRecord::Type type,
                                  const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(9 + payload.size());
  put_u8(frame, static_cast<std::uint8_t>(type));
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, crc32(payload));
  put_bytes(frame, payload);
  file_.write(frame);
  ++batches_;
  NYQMON_OBS_COUNT("nyqmon_wal_records_total", 1);
  if (++unsynced_ >= sync_interval_) sync();
}

void WriteAheadLog::append_create(const std::string& stream,
                                  double collection_rate_hz, double t0) {
  std::vector<std::uint8_t> payload;
  put_string(payload, stream);
  put_f64(payload, collection_rate_hz);
  put_f64(payload, t0);
  append_record(WalRecord::Type::kCreate, payload);
}

void WriteAheadLog::append_batch(const std::string& stream,
                                 std::span<const double> values) {
  std::vector<std::uint8_t> payload;
  payload.reserve(2 + stream.size() + 4 + 8 * values.size());
  put_string(payload, stream);
  put_u32(payload, static_cast<std::uint32_t>(values.size()));
  put_f64s(payload, values);
  append_record(WalRecord::Type::kAppend, payload);
}

void WriteAheadLog::sync() {
  if (unsynced_ == 0) return;
  try {
    // ROADMAP item 3 (WAL at 44 MB/s vs flush at 447 MB/s): the fsync
    // distribution is the durability tax, measured at its source.
    NYQMON_OBS_TIMER("nyqmon_wal_fsync_ns");
    NYQMON_TRACE_SPAN("wal_fsync", "storage");
    file_.sync();
  } catch (const std::exception& e) {
    // A failed fsync means durability of the unsynced records is unknown
    // (and on most filesystems unrecoverable for this write window) —
    // loud, then rethrown: callers must see it, but the record survives
    // in the log ring even if they swallow the throw.
    NYQMON_LOG_ERROR("storage.wal_fsync_failed",
                     "path=" + path_ + " unsynced_batches=" +
                         std::to_string(unsynced_) + " what=" + e.what());
    throw;
  }
  unsynced_ = 0;
  ++syncs_;
}

WalReplayStats WriteAheadLog::replay(
    const std::string& path,
    const std::function<void(const WalRecord&)>& apply) {
  WalReplayStats stats;
  if (!std::filesystem::exists(path)) {
    create(path);
    stats.bytes_replayed = sizeof(kWalMagic);
    return stats;
  }
  const std::vector<std::uint8_t> bytes = read_file(path);
  if (bytes.size() < sizeof(kWalMagic) ||
      std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    // Unrecognizable file: treat everything as a torn tail.
    stats.records_truncated = bytes.empty() ? 0 : 1;
    create(path);
    stats.bytes_replayed = sizeof(kWalMagic);
    return stats;
  }

  std::size_t pos = sizeof(kWalMagic);
  std::size_t good_end = pos;
  bool tail_bad = false;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 9) {  // incomplete frame header
      tail_bad = true;
      break;
    }
    ByteReader frame{std::span<const std::uint8_t>(bytes).subspan(pos, 9)};
    const std::uint8_t type = frame.get_u8();
    const std::uint32_t len = frame.get_u32();
    const std::uint32_t crc = frame.get_u32();
    if ((type != 1 && type != 2) || bytes.size() - pos - 9 < len) {
      tail_bad = true;
      break;
    }
    const auto payload = std::span(bytes).subspan(pos + 9, len);
    if (crc32(payload) != crc) {
      tail_bad = true;
      break;
    }
    ByteReader r(payload);
    WalRecord rec;
    rec.type = static_cast<WalRecord::Type>(type);
    rec.stream = r.get_string();
    if (rec.type == WalRecord::Type::kCreate) {
      rec.collection_rate_hz = r.get_f64();
      rec.t0 = r.get_f64();
    } else {
      // A CRC-valid record can still declare more values than it holds:
      // get_f64s refuses the count (a CRC collision with a short payload)
      // before it allocates, and the check below stops the replay there.
      rec.values = r.get_f64s(r.get_u32());
    }
    if (!r.ok()) {
      tail_bad = true;
      break;
    }
    apply(rec);
    pos += 9 + len;
    good_end = pos;
    ++stats.records_replayed;
  }
  if (tail_bad) ++stats.records_truncated;
  stats.bytes_replayed = good_end;
  if (good_end < bytes.size()) truncate_file(path, good_end);
  return stats;
}

}  // namespace nyqmon::sto
