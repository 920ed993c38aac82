// LSB-first bit streams as used by DEFLATE (RFC 1951 §3.1.1).
//
// Data elements other than Huffman codes are packed starting from the least
// significant bit of each byte; Huffman codes are packed most-significant
// code bit first, which callers achieve by reversing the code bits before
// calling write_bits (see Huffman::encode_entry).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hsim::deflate {

class BitWriter {
 public:
  /// Appends `count` bits of `value` (LSB first). count <= 32.
  void write_bits(std::uint32_t value, unsigned count) {
    acc_ |= static_cast<std::uint64_t>(value & ((1ull << count) - 1)) << used_;
    used_ += count;
    while (used_ >= 8) {
      bytes_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ >>= 8;
      used_ -= 8;
    }
  }

  /// Pads with zero bits to the next byte boundary.
  void align_to_byte() {
    if (used_ > 0) {
      bytes_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ = 0;
      used_ = 0;
    }
  }

  /// Appends whole bytes (caller must be byte-aligned, e.g. stored blocks).
  void write_bytes(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  std::vector<std::uint8_t> take() {
    align_to_byte();
    return std::move(bytes_);
  }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;
  unsigned used_ = 0;
};

/// Reads bits LSB-first from a buffer that may grow between calls (streaming
/// inflate). Positions can be saved and restored so a decoder can roll back
/// to the last fully-decoded symbol when input runs dry mid-symbol.
class BitReader {
 public:
  struct Position {
    std::size_t byte = 0;
    unsigned bit = 0;
  };

  explicit BitReader(const std::vector<std::uint8_t>& buffer)
      : buffer_(&buffer) {}

  Position tell() const { return pos_; }
  void seek(Position p) { pos_ = p; }

  /// Bits remaining in the buffer from the current position.
  std::size_t bits_available() const {
    return (buffer_->size() - pos_.byte) * 8 - pos_.bit;
  }

  bool can_read(unsigned count) const { return bits_available() >= count; }

  /// Reads `count` bits LSB-first. Caller must ensure availability.
  std::uint32_t read_bits(unsigned count) {
    std::uint32_t value = 0;
    for (unsigned i = 0; i < count; ++i) {
      const std::uint32_t bit = ((*buffer_)[pos_.byte] >> pos_.bit) & 1u;
      value |= bit << i;
      if (++pos_.bit == 8) {
        pos_.bit = 0;
        ++pos_.byte;
      }
    }
    return value;
  }

  /// Reads a single bit. Caller must ensure availability.
  std::uint32_t read_bit() { return read_bits(1); }

  /// Skips to the next byte boundary (stored blocks).
  void align_to_byte() {
    if (pos_.bit != 0) {
      pos_.bit = 0;
      ++pos_.byte;
    }
  }

  /// Byte-aligned whole-byte read; caller must ensure availability.
  std::uint8_t read_aligned_byte() { return (*buffer_)[pos_.byte++]; }

 private:
  const std::vector<std::uint8_t>* buffer_;
  Position pos_;
};

/// Reverses the low `count` bits of `code` (Huffman codes are emitted MSB
/// first within the LSB-first stream).
inline std::uint32_t reverse_bits(std::uint32_t code, unsigned count) {
  std::uint32_t r = 0;
  for (unsigned i = 0; i < count; ++i) {
    r = (r << 1) | ((code >> i) & 1u);
  }
  return r;
}

}  // namespace hsim::deflate
