// Byte-level plumbing for the durable tier: little-endian payload
// building/parsing and a thin POSIX file wrapper (the WAL needs real
// fsync barriers, which iostreams cannot provide).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/check.h"

namespace nyqmon::sto {

// ------------------------------------------------------- payload building --
// All multi-byte fields in the segment/WAL formats are little-endian.

// A count × f64 run is copied whole between a double array and its bytes
// (put_f64s / ByteReader::get_f64s), which is the little-endian layout only
// on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "storage/io.h copies f64 runs whole: little-endian hosts only");

inline void put_u8(std::vector<std::uint8_t>& b, std::uint8_t v) {
  b.push_back(v);
}

inline void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int s = 0; s < 32; s += 8)
    b.push_back(static_cast<std::uint8_t>(v >> s));
}

inline void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int s = 0; s < 64; s += 8)
    b.push_back(static_cast<std::uint8_t>(v >> s));
}

inline void put_f64(std::vector<std::uint8_t>& b, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(b, bits);
}

inline void put_bytes(std::vector<std::uint8_t>& b,
                      std::span<const std::uint8_t> bytes) {
  b.insert(b.end(), bytes.begin(), bytes.end());
}

/// Append `values` as a run of f64 bits: the bytes put_f64 writes value by
/// value, in one copy.
inline void put_f64s(std::vector<std::uint8_t>& b,
                     std::span<const double> values) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(values.data());
  b.insert(b.end(), p, p + values.size_bytes());
}

/// Longest string a str16 field (u16 length prefix) can carry.
inline constexpr std::size_t kMaxStr16Bytes = 0xffff;

/// Write `s` as a str16 field. Throws std::invalid_argument for strings
/// over kMaxStr16Bytes rather than let the length prefix wrap.
inline void put_string(std::vector<std::uint8_t>& b, const std::string& s) {
  NYQMON_CHECK_MSG(s.size() <= kMaxStr16Bytes,
                   "string exceeds the str16 length prefix");
  put_u16(b, static_cast<std::uint16_t>(s.size()));
  b.insert(b.end(), s.begin(), s.end());
}

/// Bounds-checked little-endian parser. Reads past the end latch `ok()` to
/// false and return zeros/empties instead of throwing, so block parsers can
/// finish a best-effort pass and report the block corrupt.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint8_t get_u8() { return take(1) ? bytes_[pos_ - 1] : 0; }

  std::uint16_t get_u16() {
    if (!take(2)) return 0;
    return static_cast<std::uint16_t>(bytes_[pos_ - 2]) |
           static_cast<std::uint16_t>(bytes_[pos_ - 1]) << 8;
  }

  std::uint32_t get_u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(bytes_[pos_ - 4 + i]) << (8 * i);
    return v;
  }

  std::uint64_t get_u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(bytes_[pos_ - 8 + i]) << (8 * i);
    return v;
  }

  double get_f64() {
    const std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// `count` f64 values in one copy. A count the remaining bytes cannot
  /// hold latches ok() false and allocates nothing.
  std::vector<double> get_f64s(std::size_t count) {
    if (count > remaining() / 8 || !take(8 * count)) {
      ok_ = false;
      return {};
    }
    std::vector<double> values(count);
    if (count > 0)
      std::memcpy(values.data(), &bytes_[pos_ - 8 * count], 8 * count);
    return values;
  }

  std::string get_string() {
    const std::uint16_t n = get_u16();
    if (!take(n)) return {};
    return std::string(reinterpret_cast<const char*>(&bytes_[pos_ - n]), n);
  }

  std::span<const std::uint8_t> get_bytes(std::size_t n) {
    if (!take(n)) return {};
    return bytes_.subspan(pos_ - n, n);
  }

 private:
  bool take(std::size_t n) {
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ------------------------------------------------------------- POSIX file --

/// RAII fd with the handful of operations the storage tier needs. All
/// methods throw std::runtime_error on I/O failure.
class File {
 public:
  /// Create/truncate for writing.
  static File create(const std::string& path);
  /// Open existing for appending (created if missing).
  static File append(const std::string& path);

  File(File&& other) noexcept;
  File& operator=(File&&) = delete;
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File();

  void write(std::span<const std::uint8_t> bytes);
  /// fsync(2): the WAL's durability barrier.
  void sync();
  void close();
  std::uint64_t bytes_written() const { return written_; }

 private:
  File(int fd, std::string path, std::uint64_t size);

  int fd_ = -1;
  std::string path_;
  std::uint64_t written_ = 0;
};

/// Whole file into memory. Throws on open/read failure; missing files are
/// the caller's business (check exists() first).
std::vector<std::uint8_t> read_file(const std::string& path);

/// Write bytes to `path` atomically: temp file in the same directory, fsync,
/// rename over the target, fsync the directory. The commit point of every
/// manifest update.
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

/// Truncate `path` to `size` bytes (drop a torn WAL tail).
void truncate_file(const std::string& path, std::uint64_t size);

/// fsync the directory entry itself (make renames/creates durable).
void fsync_dir(const std::string& dir);

}  // namespace nyqmon::sto
