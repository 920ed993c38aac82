// V.42bis-style modem data compression (BTLZ), modelled for the PPP link.
//
// V.42bis is an LZW dictionary compressor running inside the modem pair with
// a small dictionary (2048 codewords, max 11-bit codes) and a
// transparent mode that stops expansion on incompressible data. The paper's
// §8.2.1 shows deflate beating it decisively on HTML; this model reproduces
// that gap with a real streaming LZW over the byte stream crossing the link.
//
// Used two ways:
//   - as a Link payload sizer: each packet's payload is run through the
//     shared dictionary and its on-the-wire size becomes the LZW output size
//     (headers are never compressed);
//   - standalone, to measure steady-state compression ratios on documents.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "content/lzw_dict.hpp"
#include "net/link.hpp"

namespace hsim::modem {

class V42bis {
 public:
  /// Feeds payload bytes through the compressor and returns the number of
  /// bytes emitted on the physical medium for this chunk (compressed size,
  /// or payload size + 1 escape byte when transparent mode wins).
  std::size_t process(std::span<const std::uint8_t> payload);

  std::uint64_t total_in() const { return total_in_; }
  void reset();

 private:
  std::size_t lzw_bits(std::span<const std::uint8_t> payload);
  void clear_dict();

  static constexpr std::uint32_t kDictionarySize = 2048;
  content::LzwDict<12> dict_;  // 4096 slots for the 2048 codes
  std::uint32_t next_code_ = 259;  // 0-255 roots + 3 control codes
  unsigned code_width_ = 9;
  std::uint32_t current_ = UINT32_MAX;  // cross-packet match state
  std::uint64_t total_in_ = 0;
};

/// Wraps a shared compressor state as a Link payload sizer. Each direction
/// of a modem link owns its own dictionary (as the two modems do).
net::Link::PayloadSizer make_modem_sizer(std::shared_ptr<V42bis> state);

}  // namespace hsim::modem
