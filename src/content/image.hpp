// Palette-indexed raster images and deterministic synthetic image content.
//
// The paper's test page embeds real GIFs from 1997 home pages (icons,
// banners, spacers, one large hero image, two animations). We synthesize
// images with comparable structure — flat regions, text-like strokes,
// dithered areas — so that GIF/PNG encoders face realistic statistics.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/random.hpp"

namespace hsim::content {

struct IndexedImage {
  unsigned width = 0;
  unsigned height = 0;
  /// Palette entries as 0xRRGGBB; size is a power of two, 2..256.
  std::vector<std::uint32_t> palette;
  /// Row-major palette indices, width*height entries.
  std::vector<std::uint8_t> pixels;

  std::uint8_t& at(unsigned x, unsigned y) { return pixels[y * width + x]; }
  std::uint8_t at(unsigned x, unsigned y) const {
    return pixels[y * width + x];
  }
  /// Bits per palette index (1..8), from palette size.
  unsigned bit_depth() const;
};

/// What kind of visual content a synthetic image mimics. Affects both size
/// and compressibility characteristics.
enum class ImageKind {
  kSpacer,     // single-colour (invisible layout images; tiny)
  kBullet,     // small icon with a couple of colours
  kTextBanner, // text strokes on flat background (the "solutions" GIF)
  kPhoto,      // dithered many-colour content (compresses poorly)
  kLogo,       // mix of flat areas and detail
};

struct SyntheticSpec {
  ImageKind kind = ImageKind::kBullet;
  unsigned width = 16;
  unsigned height = 16;
  unsigned colors = 4;  // rounded up to a power of two
  std::uint64_t seed = 1;
};

/// Deterministically generates an image matching the spec.
IndexedImage generate_image(const SyntheticSpec& spec);

/// Animation: a sequence of frames over a shared palette. Successive frames
/// differ incrementally (the common animated-GIF pattern).
struct Animation {
  std::vector<IndexedImage> frames;
  unsigned delay_centiseconds = 10;
};

Animation generate_animation(const SyntheticSpec& spec, unsigned frame_count);

// ---- Modern codec size models (the "--content modern" axis) ---------------
//
// The paper asked "fewer bytes vs fewer round trips" with 1997 payloads
// (GIF, later PNG). Re-asking it under 2020s payloads needs WebP/AVIF-class
// sizes for the same 42-image histogram. We model the re-encode as a
// per-kind size ratio against the GIF encoding, per the published
// format-comparison studies (see PAPERS.md "Web Image Formats"): lossless
// WebP graphics land around 0.5-0.75x of their palette-era encodings, lossy
// photographic WebP around 0.35x, and AVIF pushes photographic content to
// roughly a quarter. Tiny images are floored at the container overhead.

enum class ModernCodec { kWebP, kAvif };

/// File extension including the dot (".webp" / ".avif").
std::string_view extension(ModernCodec codec);

/// Size ratio (modern bytes / GIF bytes) for the given content class.
double modern_size_factor(ImageKind kind, bool animated, ModernCodec codec);

/// Modelled encoded size for a GIF asset of `gif_bytes`, floored at the
/// codec's minimum container size.
std::size_t modern_encoded_size(std::size_t gif_bytes, ImageKind kind,
                                bool animated, ModernCodec codec);

/// Deterministic stand-in container bytes of exactly `size` bytes: a
/// plausible magic header followed by seeded incompressible payload (modern
/// codec output does not deflate further, which matters to the compressed
/// transfer-coding experiments).
std::vector<std::uint8_t> modern_container_bytes(ModernCodec codec,
                                                 std::size_t size,
                                                 std::uint64_t seed);

/// Searches for a SyntheticSpec whose encoding under `encoded_size` lands
/// within `tolerance` (fractional) of `target_bytes`, by scaling dimensions.
/// Used to rebuild the Microscape page's published size histogram.
template <typename EncodedSizeFn>
SyntheticSpec fit_spec_to_size(SyntheticSpec base, std::size_t target_bytes,
                               EncodedSizeFn encoded_size,
                               double tolerance = 0.12) {
  // Geometric search on a scale factor applied to both dimensions.
  double lo = 0.05, hi = 40.0;
  SyntheticSpec best = base;
  std::size_t best_err = static_cast<std::size_t>(-1);
  for (int iter = 0; iter < 28; ++iter) {
    const double mid = std::sqrt(lo * hi);
    SyntheticSpec trial = base;
    trial.width = std::max(1u, static_cast<unsigned>(base.width * mid));
    trial.height = std::max(1u, static_cast<unsigned>(base.height * mid));
    const std::size_t size = encoded_size(trial);
    const std::size_t err = size > target_bytes ? size - target_bytes
                                                : target_bytes - size;
    if (err < best_err) {
      best_err = err;
      best = trial;
    }
    if (static_cast<double>(err) <=
        tolerance * static_cast<double>(target_bytes)) {
      return trial;
    }
    if (size > target_bytes) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return best;
}

}  // namespace hsim::content
