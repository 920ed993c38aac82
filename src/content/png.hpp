// PNG encoder/decoder for palette-indexed images (RFC 2083), built on the
// from-scratch zlib/deflate implementation. Encoded files carry the gAMA
// chunk, which the paper notes adds 16 bytes per image relative to GIF but
// buys cross-platform colour fidelity.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "content/image.hpp"

namespace hsim::content {

struct PngOptions {
  /// Include a gAMA chunk (16 bytes: length+type+data+crc), as the paper's
  /// converted images did.
  bool include_gamma = true;
  /// Per-row filter selection: false = filter 0 everywhere, true = choose
  /// the filter minimizing sum of absolute differences per row.
  bool adaptive_filtering = true;
};

std::vector<std::uint8_t> encode_png(const IndexedImage& image,
                                     PngOptions options = {});

struct PngDecodeResult {
  IndexedImage image;
  bool ok = false;
  bool had_gamma = false;
  std::string error;
};

PngDecodeResult decode_png(std::span<const std::uint8_t> data);

}  // namespace hsim::content
