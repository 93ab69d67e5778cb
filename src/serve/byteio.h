// Internal little-endian byte codec shared by the serving layer.
//
// The canonical layout serialisation (layout_hash.cpp) and the wire format
// (wire.cpp) must agree byte-for-byte on integer/double encoding; keeping
// one writer and one reader here means a width or byte-order slip cannot
// diverge between them. ByteWriter sizes its buffer once per block because
// the canonical serialisation sits on the per-request fast path (every
// submit hashes its layout) and must not pay a capacity check per byte; it
// also writes the wire frame's spec and program blocks, through the same
// canonical writers (layout_hash.h). The append_* helpers serve the rest of
// the wire encoder, where frames are assembled from variable-size blocks.
// ByteReader is bounds-checked on every primitive so truncated input fails
// loudly wherever it is cut.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"

namespace sw::serve::detail {

/// Little-endian writer appending to a caller-owned vector: the vector is
/// grown in blocks (`bound` bytes up front, then reserve()), never per
/// byte, and finish() trims it to what was written.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out, std::size_t bound = 0)
      : out_(out), pos_(out.size()) {
    out_.resize(pos_ + bound);
  }

  /// Makes room for `n` more bytes; a no-op when the bound covers them.
  void reserve(std::size_t n) {
    if (out_.size() - pos_ < n) out_.resize(pos_ + n);
  }

  void u8(std::uint8_t v) { out_[pos_++] = v; }

  void u64(std::uint64_t v) {
    std::uint8_t* p = out_.data() + pos_;
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    pos_ += 8;
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void finish() { out_.resize(pos_); }

 private:
  std::vector<std::uint8_t>& out_;
  std::size_t pos_;
};

/// In-place little-endian stores for patching already-sized buffers (the
/// appending encoders below write sequentially; these write at a position).
inline void store_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Appending little-endian helpers for block-assembled buffers.
inline void append_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void append_f64(std::vector<std::uint8_t>& out, double v) {
  append_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked little-endian reader; every primitive throws
/// sw::util::Error on a read past the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }

  std::uint16_t u16() {
    const auto b = take(2);
    return static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }

  std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
    }
    return v;
  }

  std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    }
    return v;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::span<const std::uint8_t> take(std::size_t n) {
    SW_REQUIRE(n <= bytes_.size() - pos_, "truncated frame");
    const auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace sw::serve::detail
