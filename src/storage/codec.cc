#include "storage/codec.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace nyqmon::sto {

namespace {

// MSB-first bit sinks. BitWriter materializes the stream; BitCounter only
// counts, so xor_encoded_size() shares the encoder loop without allocating.
class BitWriter {
 public:
  /// Append the low `n` bits of `v` (MSB first). n <= 64.
  void put(std::uint64_t v, unsigned n) {
    while (n > 0) {
      const unsigned room = 64 - fill_;
      const unsigned take = n < room ? n : room;
      const std::uint64_t top =
          (v >> (n - take)) & (take == 64 ? ~0ULL : ((1ULL << take) - 1));
      acc_ = take == 64 ? top : (acc_ << take) | top;
      fill_ += take;
      n -= take;
      if (fill_ == 64) {
        for (int s = 56; s >= 0; s -= 8)
          bytes_.push_back(static_cast<std::uint8_t>(acc_ >> s));
        acc_ = 0;
        fill_ = 0;
      }
    }
  }

  std::vector<std::uint8_t> finish() {
    if (fill_ > 0) {
      acc_ <<= (64 - fill_);
      for (unsigned emitted = 0; emitted < fill_; emitted += 8)
        bytes_.push_back(static_cast<std::uint8_t>(acc_ >> (56 - emitted)));
    }
    acc_ = 0;
    fill_ = 0;
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;
};

class BitCounter {
 public:
  void put(std::uint64_t, unsigned n) { bits_ += n; }
  std::size_t bytes() const { return (bits_ + 7) / 8; }

 private:
  std::size_t bits_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Read `n` bits (MSB first) into the low bits of the result. n <= 64.
  /// Reading past the end throws (corrupt stream).
  std::uint64_t get(unsigned n) {
    std::uint64_t out = 0;
    while (n > 0) {
      if (avail_ == 0) refill();
      const unsigned take = n < avail_ ? n : avail_;
      const std::uint64_t top = acc_ >> (64 - take);
      out = take == 64 ? top : (out << take) | top;
      acc_ = take == 64 ? 0 : acc_ << take;
      avail_ -= take;
      n -= take;
    }
    return out;
  }

 private:
  void refill() {
    if (pos_ >= bytes_.size())
      throw std::runtime_error("xor_decode: bit stream exhausted");
    unsigned got = 0;
    acc_ = 0;
    while (pos_ < bytes_.size() && got < 64) {
      acc_ |= static_cast<std::uint64_t>(bytes_[pos_++]) << (56 - got);
      got += 8;
    }
    avail_ = got;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  unsigned avail_ = 0;
};

// Gorilla 4.1.2 value compression. Control bits per value:
//   '0'                          — identical to predecessor (XOR == 0)
//   '10' + meaningful bits       — XOR fits the previous leading/trailing
//                                  window; re-use its width
//   '11' + 5b leading + 6b count — new window, then the meaningful bits
//                                  (count of 64 encodes as 0)
template <typename Sink>
void encode_into(std::span<const double> values, Sink& sink) {
  if (values.empty()) return;
  std::uint64_t prev = std::bit_cast<std::uint64_t>(values[0]);
  sink.put(prev, 64);
  unsigned prev_lead = 0;
  unsigned prev_sig = 0;  // 0 = no previous window yet
  for (std::size_t i = 1; i < values.size(); ++i) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(values[i]);
    const std::uint64_t x = bits ^ prev;
    prev = bits;
    if (x == 0) {
      sink.put(0, 1);
      continue;
    }
    unsigned lead = static_cast<unsigned>(std::countl_zero(x));
    const unsigned trail = static_cast<unsigned>(std::countr_zero(x));
    if (lead > 31) lead = 31;  // 5-bit field
    if (prev_sig != 0 && lead >= prev_lead &&
        trail >= 64 - prev_lead - prev_sig) {
      sink.put(0b10, 2);
      sink.put(x >> (64 - prev_lead - prev_sig), prev_sig);
    } else {
      const unsigned sig = 64 - lead - trail;
      sink.put(0b11, 2);
      sink.put(lead, 5);
      sink.put(sig & 63u, 6);  // 64 -> 0
      sink.put(x >> trail, sig);
      prev_lead = lead;
      prev_sig = sig;
    }
  }
}

}  // namespace

std::vector<std::uint8_t> xor_encode(std::span<const double> values) {
  BitWriter w;
  encode_into(values, w);
  return w.finish();
}

std::size_t xor_encoded_size(std::span<const double> values) {
  BitCounter c;
  encode_into(values, c);
  return c.bytes();
}

std::vector<double> xor_decode(std::span<const std::uint8_t> bytes,
                               std::size_t count) {
  std::vector<double> out;
  // Every value after the first costs at least one bit, so the stream's
  // size bounds what a (possibly corrupt) count may reserve.
  out.reserve(std::min(count, bytes.size() * 8));
  if (count == 0) return out;
  BitReader r(bytes);
  std::uint64_t prev = r.get(64);
  out.push_back(std::bit_cast<double>(prev));
  unsigned lead = 0;
  unsigned sig = 0;
  while (out.size() < count) {
    if (r.get(1) == 0) {
      out.push_back(std::bit_cast<double>(prev));
      continue;
    }
    if (r.get(1) == 1) {
      lead = static_cast<unsigned>(r.get(5));
      sig = static_cast<unsigned>(r.get(6));
      if (sig == 0) sig = 64;
      // The encoder never emits an over-wide window; seeing one means the
      // stream is corrupt (CRC-colliding damage). Throw instead of letting
      // the shift below go undefined.
      if (lead + sig > 64)
        throw std::runtime_error("xor_decode: corrupt window (lead+sig > 64)");
    } else if (sig == 0) {
      throw std::runtime_error("xor_decode: window reuse before any window");
    }
    const std::uint64_t meaningful = r.get(sig);
    prev ^= meaningful << (64 - lead - sig);
    out.push_back(std::bit_cast<double>(prev));
  }
  return out;
}

}  // namespace nyqmon::sto
