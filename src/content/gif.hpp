// GIF87a/89a encoder and decoder with a from-scratch LZW codec.
//
// Static images use GIF87a; animations use GIF89a with the Netscape looping
// application extension and per-frame graphic control extensions, matching
// the animated banners on 1997 home pages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "content/image.hpp"

namespace hsim::content {

/// Encodes a single-frame GIF87a.
std::vector<std::uint8_t> encode_gif(const IndexedImage& image);

/// Encodes an animated GIF89a (all frames full-size, shared palette).
std::vector<std::uint8_t> encode_animated_gif(const Animation& animation);

struct GifDecodeResult {
  std::vector<IndexedImage> frames;
  bool ok = false;
  std::string error;
};

/// Decodes either form. Every encoder output must decode back exactly.
GifDecodeResult decode_gif(std::span<const std::uint8_t> data);

// ---- LZW (GIF variant: variable code width, clear/EOI codes) -------------

/// Compresses `indices` with GIF-LZW at the given root code size (2..8).
std::vector<std::uint8_t> gif_lzw_compress(
    std::span<const std::uint8_t> indices, unsigned min_code_size);

/// Decompresses; empty optional on malformed input, on a root code size
/// outside 2..8, or once the output would grow past `max_out` bytes.
std::optional<std::vector<std::uint8_t>> gif_lzw_decompress(
    std::span<const std::uint8_t> data, unsigned min_code_size,
    std::size_t max_out);

}  // namespace hsim::content
