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

// ---- PNG-family pieces the MNG container shares ---------------------------

void append_u32be(std::vector<std::uint8_t>& out, std::uint32_t v);
std::uint32_t read_u32be(std::span<const std::uint8_t> data, std::size_t at);
/// Appends one chunk: length, type, data, and the CRC over type and data.
void append_chunk(std::vector<std::uint8_t>& out, const char type[4],
                  std::span<const std::uint8_t> data);
/// Palette entries (0xRRGGBB) of a PLTE chunk body.
std::vector<std::uint32_t> read_palette(std::span<const std::uint8_t> plte);

/// The PNG decoder's back half: checks the header fields, inflates the IDAT
/// stream (capped at the (row bytes + 1) x height the header implies) and
/// unfilters its scanlines into a palette image.
PngDecodeResult decode_png_scanlines(unsigned width, unsigned height,
                                     unsigned depth,
                                     std::vector<std::uint32_t> palette,
                                     std::span<const std::uint8_t> idat);

}  // namespace hsim::content
