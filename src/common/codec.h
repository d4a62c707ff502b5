// Bit-level and byte-level codecs for the compressed sub-tree format (v3).
//
// Three primitives, all deterministic and allocation-light:
//  * LEB128 varints (PutVarint64/GetVarint64) with zigzag for signed deltas —
//    the leaf-offset streams are delta-coded in slot order, and adjacent
//    suffix offsets go both directions.
//  * BitWidth + MaskLow — the width-selection rule: every packed field of a
//    sub-tree is stored in exactly BitWidth(max value) bits.
//  * BitWriter/BitReader — fixed-width bit packing in little-endian bit
//    order (bit i of the stream is bit i%8 of byte i/8). The reader decodes
//    a field with two unaligned 64-bit loads, so random node access inside a
//    packed record costs a handful of instructions; callers must guarantee
//    kBitReaderPadBytes of readable tail (a served sub-tree reads records
//    from blocks with an overlap tail, or from an image with a zero pad that
//    is never written to disk).

#ifndef ERA_COMMON_CODEC_H_
#define ERA_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace era {

/// Appends `v` to `dst` as an LEB128 varint (1..10 bytes).
inline void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

/// Decodes a varint from data[*pos..size); advances *pos past it. Returns
/// false (leaving *out unspecified) on truncation or a >64-bit encoding.
inline bool GetVarint64(const char* data, std::size_t size, std::size_t* pos,
                        uint64_t* out) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift < 64; shift += 7) {
    if (*pos >= size) return false;
    const uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    if (byte & 0x80) {
      result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    } else {
      if (shift == 63 && byte > 1) return false;  // overflows 64 bits
      result |= static_cast<uint64_t>(byte) << shift;
      *out = result;
      return true;
    }
  }
  return false;  // 10th byte still had the continuation bit set
}

/// Order-preserving signed→unsigned mapping so small deltas of either sign
/// stay short varints.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Bits needed to store `v` exactly: 0 for 0, 64 for ~0ull. The v3 width
/// rule is w_field = BitWidth(max over the sub-tree).
inline uint32_t BitWidth(uint64_t v) {
  uint32_t w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

/// Low `width` one-bits (width in [0, 64]).
inline uint64_t MaskLow(uint32_t width) {
  return width >= 64 ? ~0ull : (1ull << width) - 1;
}

/// Readable bytes a BitReader may touch past the last encoded bit.
inline constexpr std::size_t kBitReaderPadBytes = 8;

/// Appends fixed-width fields to a byte string, LSB-first within each byte.
/// Call Finish() once to flush the final partial byte.
class BitWriter {
 public:
  void Put(uint64_t v, uint32_t width) {
    v &= MaskLow(width);
    uint32_t done = 0;
    while (done < width) {
      const uint32_t take = width - done < 8u - nbits_ ? width - done
                                                       : 8u - nbits_;
      acc_ |= static_cast<uint32_t>((v >> done) & MaskLow(take)) << nbits_;
      nbits_ += take;
      done += take;
      if (nbits_ == 8) {
        buf_.push_back(static_cast<char>(acc_));
        acc_ = 0;
        nbits_ = 0;
      }
    }
  }

  void Finish() {
    if (nbits_ > 0) {
      buf_.push_back(static_cast<char>(acc_));
      acc_ = 0;
      nbits_ = 0;
    }
  }

  const std::string& bytes() const { return buf_; }
  std::string&& TakeBytes() { return std::move(buf_); }

 private:
  std::string buf_;
  uint32_t acc_ = 0;    // partial byte, low nbits_ bits valid
  uint32_t nbits_ = 0;  // always < 8 between calls
};

/// Random-access reads over a BitWriter stream. The buffer must extend
/// kBitReaderPadBytes past the last byte a Get() can start in; little-endian
/// hosts only (the whole node record path assumes LE, like the rest of the
/// on-disk format).
class BitReader {
 public:
  BitReader() = default;
  BitReader(const char* data, std::size_t size_with_pad)
      : data_(reinterpret_cast<const uint8_t*>(data)), size_(size_with_pad) {}

  uint64_t Get(uint64_t bit_offset, uint32_t width) const {
    if (width == 0) return 0;
    const uint64_t byte = bit_offset >> 3;
    const uint32_t shift = static_cast<uint32_t>(bit_offset & 7);
    uint64_t lo;
    std::memcpy(&lo, data_ + byte, sizeof(lo));
    uint64_t v = lo >> shift;
    if (shift + width > 64) {
      v |= static_cast<uint64_t>(data_[byte + 8]) << (64 - shift);
    }
    return v & MaskLow(width);
  }

 private:
  const uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace era

#endif  // ERA_COMMON_CODEC_H_
