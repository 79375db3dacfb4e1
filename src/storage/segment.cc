#include "storage/segment.h"

#include <cstring>
#include <stdexcept>

#include "storage/codec.h"
#include "storage/crc32.h"
#include "storage/io.h"

namespace nyqmon::sto {

namespace {

constexpr std::uint8_t kBlockStreamHeader = 1;
constexpr std::uint8_t kBlockChunk = 2;
constexpr std::uint8_t kBlockTail = 3;

// Block frame (type + len + crc) plus the chunk header (t0, dt, count,
// codec id) — the per-chunk disk cost the store's byte accounting mirrors.
constexpr std::size_t kBlockFrameBytes = 1 + 4 + 4;
static_assert(kBlockFrameBytes + 8 + 8 + 4 + 1 == kChunkDiskOverheadBytes,
              "store byte accounting disagrees with the segment framing");

}  // namespace

SegmentWriter::SegmentWriter() {
  for (const char c : kSegmentMagic)
    bytes_.push_back(static_cast<std::uint8_t>(c));
}

void SegmentWriter::add_block(std::uint8_t type,
                              const std::vector<std::uint8_t>& payload) {
  put_u8(bytes_, type);
  put_u32(bytes_, static_cast<std::uint32_t>(payload.size()));
  put_u32(bytes_, crc32(payload));
  put_bytes(bytes_, payload);
}

void SegmentWriter::add_stream(const mon::StreamSnapshot& snapshot) {
  std::vector<std::uint8_t> header;
  put_string(header, snapshot.name);
  put_f64(header, snapshot.collection_rate_hz);
  put_f64(header, snapshot.t0);
  put_f64(header, snapshot.hot_t0);
  put_u64(header, snapshot.generation);
  put_u64(header, snapshot.stats.ingested_samples);
  put_u64(header, snapshot.stats.sealed_ingested_samples);
  put_u64(header, snapshot.stats.stored_samples);
  put_u64(header, snapshot.stats.chunks);
  put_u64(header, snapshot.stats.chunks_reduced);
  put_u64(header, snapshot.stats.bytes_raw);
  put_u64(header, snapshot.stats.bytes_stored);
  add_block(kBlockStreamHeader, header);

  for (const auto& chunk : snapshot.chunks) {
    std::vector<std::uint8_t> payload;
    put_f64(payload, chunk.t0);
    put_f64(payload, chunk.dt);
    put_u32(payload, static_cast<std::uint32_t>(chunk.values.size()));
    put_u8(payload, kCodecXor);
    put_bytes(payload, xor_encode(chunk.values));
    add_block(kBlockChunk, payload);
    ++stats_.chunks;
    stats_.samples += chunk.values.size();
  }

  std::vector<std::uint8_t> tail;
  put_u32(tail, static_cast<std::uint32_t>(snapshot.hot.size()));
  put_u8(tail, kCodecXor);
  put_bytes(tail, xor_encode(snapshot.hot));
  add_block(kBlockTail, tail);
  stats_.samples += snapshot.hot.size();
  ++stats_.streams;
}

SegmentReadStats read_segment(
    const std::string& path,
    std::map<std::string, mon::StreamSnapshot>& streams) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  if (bytes.size() < sizeof(kSegmentMagic) ||
      std::memcmp(bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0)
    throw std::runtime_error("not a segment file: " + path);
  return read_segment_bytes(bytes, streams);
}

SegmentReadStats read_segment_bytes(
    std::span<const std::uint8_t> bytes,
    std::map<std::string, mon::StreamSnapshot>& streams) {
  if (bytes.size() < sizeof(kSegmentMagic) ||
      std::memcmp(bytes.data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0)
    throw std::runtime_error("not a segment image");

  SegmentReadStats stats;
  mon::StreamSnapshot* current = nullptr;  // owner of chunk/tail blocks
  std::size_t pos = sizeof(kSegmentMagic);
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kBlockFrameBytes) {
      ++stats.crc_skipped_blocks;  // truncated frame at EOF
      break;
    }
    ByteReader frame{
        std::span<const std::uint8_t>(bytes).subspan(pos, kBlockFrameBytes)};
    const std::uint8_t type = frame.get_u8();
    const std::uint32_t len = frame.get_u32();
    const std::uint32_t crc = frame.get_u32();
    if (type < kBlockStreamHeader || type > kBlockTail ||
        bytes.size() - pos - kBlockFrameBytes < len) {
      ++stats.crc_skipped_blocks;  // derailed framing: abandon the rest
      break;
    }
    const auto payload =
        std::span(bytes).subspan(pos + kBlockFrameBytes, len);
    pos += kBlockFrameBytes + len;
    ++stats.blocks;
    if (crc32(payload) != crc) {
      ++stats.crc_skipped_blocks;
      if (type == kBlockStreamHeader) current = nullptr;  // orphan followers
      // A corrupt tail must not resurrect the previous segment's stale tail
      // under the newer header's hot_t0 — drop the tail (bounded, counted
      // loss) rather than serve old values at wrong timestamps.
      if (type == kBlockTail && current != nullptr) current->hot.clear();
      continue;
    }

    ByteReader r(payload);
    switch (type) {
      case kBlockStreamHeader: {
        // Parse fully before touching the map so a short payload cannot
        // clobber state merged from earlier segments.
        const std::string name = r.get_string();
        mon::StreamSnapshot parsed;
        parsed.collection_rate_hz = r.get_f64();
        parsed.t0 = r.get_f64();
        parsed.hot_t0 = r.get_f64();
        parsed.generation = r.get_u64();
        parsed.stats.ingested_samples = r.get_u64();
        parsed.stats.sealed_ingested_samples = r.get_u64();
        parsed.stats.stored_samples = r.get_u64();
        parsed.stats.chunks = r.get_u64();
        parsed.stats.chunks_reduced = r.get_u64();
        parsed.stats.bytes_raw = r.get_u64();
        parsed.stats.bytes_stored = r.get_u64();
        if (!r.ok()) {
          current = nullptr;
          ++stats.crc_skipped_blocks;
          break;
        }
        mon::StreamSnapshot& snap = streams[name];
        snap.name = name;
        snap.collection_rate_hz = parsed.collection_rate_hz;
        snap.t0 = parsed.t0;
        snap.hot_t0 = parsed.hot_t0;
        snap.generation = parsed.generation;
        snap.stats = parsed.stats;
        // The older epoch's tail is superseded the moment a newer header
        // applies. If this segment's own tail block never arrives (file
        // truncated after the header), hot stays empty — bounded, counted
        // loss — rather than the old tail reappearing at the new hot_t0.
        snap.hot.clear();
        stats.header_streams.push_back(name);
        current = &snap;
        break;
      }
      case kBlockChunk: {
        if (current == nullptr) {
          ++stats.crc_skipped_blocks;
          break;
        }
        mon::SealedChunk chunk;
        chunk.t0 = r.get_f64();
        chunk.dt = r.get_f64();
        const std::uint32_t count = r.get_u32();
        const std::uint8_t codec = r.get_u8();
        if (!r.ok() || codec != kCodecXor) {
          ++stats.crc_skipped_blocks;
          break;
        }
        try {
          chunk.values = xor_decode(r.get_bytes(r.remaining()), count);
        } catch (const std::runtime_error&) {
          ++stats.crc_skipped_blocks;
          break;
        }
        current->chunks.push_back(std::move(chunk));
        ++stats.chunks;
        break;
      }
      case kBlockTail: {
        if (current == nullptr) {
          ++stats.crc_skipped_blocks;
          break;
        }
        const std::uint32_t count = r.get_u32();
        const std::uint8_t codec = r.get_u8();
        if (!r.ok() || codec != kCodecXor) {
          current->hot.clear();  // same stale-tail rule as the CRC path
          ++stats.crc_skipped_blocks;
          break;
        }
        try {
          current->hot = xor_decode(r.get_bytes(r.remaining()), count);
        } catch (const std::runtime_error&) {
          current->hot.clear();
          ++stats.crc_skipped_blocks;
        }
        break;
      }
      default:
        break;
    }
  }
  return stats;
}

}  // namespace nyqmon::sto
