// Canonical Huffman codes for DEFLATE: length-limited code construction via
// the package-merge algorithm, canonical code assignment (RFC 1951 §3.2.2),
// and a decoder driven by per-length first-code arithmetic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "deflate/bitio.hpp"

namespace hsim::deflate {

/// Computes optimal code lengths (max `max_bits`) for the given symbol
/// frequencies using package-merge. Symbols with zero frequency get length 0.
/// If only one symbol has nonzero frequency it receives length 1 (DEFLATE
/// requires at least a 1-bit code).
std::vector<std::uint8_t> build_code_lengths(
    std::span<const std::uint32_t> freqs, unsigned max_bits);

/// Assigns canonical codes from code lengths per RFC 1951 §3.2.2.
/// Returns codes in natural (not bit-reversed) form.
std::vector<std::uint32_t> assign_canonical_codes(
    std::span<const std::uint8_t> lengths);

/// Encoder-side table: bit-reversed codes ready for an LSB-first BitWriter.
class HuffmanEncoder {
 public:
  /// Builds from code lengths (canonical codes are implied).
  explicit HuffmanEncoder(std::span<const std::uint8_t> lengths);

  void write_symbol(BitWriter& out, unsigned symbol) const {
    out.write_bits(reversed_codes_[symbol], lengths_[symbol]);
  }

  std::size_t size() const { return lengths_.size(); }

 private:
  std::vector<std::uint8_t> lengths_;
  std::vector<std::uint32_t> reversed_codes_;
};

/// Decoder-side table using canonical first-code arithmetic: codes are read
/// bit by bit; at each length the accumulated code is compared against the
/// range assigned to that length.
class HuffmanDecoder {
 public:
  HuffmanDecoder() = default;

  /// Builds from code lengths. Returns false if the lengths are invalid
  /// (over-subscribed Kraft sum).
  bool build(std::span<const std::uint8_t> lengths);

  /// Decodes one symbol. Returns the symbol, or -1 if the reader ran out of
  /// bits (caller should roll back and wait for more input), or -2 if the
  /// bit pattern is invalid for this code.
  int decode(BitReader& in) const;

 private:
  static constexpr unsigned kMaxBits = 15;
  // count_[l]  = number of codes of length l
  // first_[l]  = first canonical code of length l
  // offset_[l] = index into sorted_ of the first symbol with length l
  std::uint16_t count_[kMaxBits + 1] = {};
  std::uint32_t first_[kMaxBits + 1] = {};
  std::uint16_t offset_[kMaxBits + 1] = {};
  std::vector<std::uint16_t> sorted_;  // symbols ordered by (length, symbol)
};

}  // namespace hsim::deflate
