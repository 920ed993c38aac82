// The "Microscape" synthetic test site.
//
// The paper combined the 1997 Netscape and Microsoft home pages into one
// page: 42 KB of HTML with 42 inlined GIFs totalling ~125 KB (40 static
// images of 103,299 bytes — 19 under 1 KB, 7 of 1-2 KB, 6 of 2-3 KB, one
// ~40 KB hero image — plus 2 animations totalling 24,988 bytes). This module
// deterministically regenerates a site with that published size histogram:
// synthetic images are fitted so their *actual GIF encodings* land on the
// published sizes, and the HTML is realistic 1997 tag soup that deflates by
// roughly the paper's factor of three.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "content/css.hpp"
#include "content/image.hpp"

namespace hsim::content {

struct SiteImage {
  std::string path;            // e.g. "/images/img07.gif"
  ImageKind kind;
  bool animated = false;
  std::vector<std::uint8_t> gif_bytes;
  /// Source raster(s), kept for the PNG/MNG conversion experiments.
  IndexedImage source;         // static images
  Animation source_animation;  // animated images
  unsigned width = 0;
  unsigned height = 0;
};

struct MicroscapeSite {
  std::string html;               // body of "/index.html"
  std::vector<SiteImage> images;  // 42 entries, order matches the HTML

  std::size_t static_gif_bytes() const;
  std::size_t animated_gif_bytes() const;
  std::size_t total_image_bytes() const;
  std::size_t total_payload_bytes() const {
    return html.size() + total_image_bytes();
  }

  /// CSS replacement descriptors for every image (Figure 1 experiment).
  std::vector<ImageReplacement> css_replacements() const;
};

/// Builds the site (fixed seed, so every call returns the same bytes).
MicroscapeSite build_microscape();

/// The "--content modern" axis: the same page re-encoded with a 2020s image
/// codec. Rasters, layout and HTML structure are identical; every image's
/// bytes are replaced by a modelled WebP/AVIF-class container (see
/// image.hpp: per-kind size ratios against the GIF encoding, seeded
/// incompressible payload) and its path/HTML references renamed from .gif
/// to the codec's extension. Deterministic: the same input site and codec
/// always produce the same modern site.
MicroscapeSite modernize_site(const MicroscapeSite& site,
                              ModernCodec codec = ModernCodec::kWebP);

/// Extracts src="..." references in document order, possibly from a partial
/// HTML prefix — the incremental scanning a pipelining client performs as
/// bytes arrive. Only complete tags count. The resume form scans from `from`
/// (0, or an offset an earlier call returned for a shorter prefix of the same
/// document), appends only the references it completes to `refs`, and
/// returns the offset just past the last one (or `from` when none), so a
/// client scans each byte of a growing prefix about once. The scan is
/// prefix-stable: a reference complete in a prefix is found, at the same
/// offset, in every longer prefix.
std::size_t scan_image_references(std::string_view html_prefix,
                                  std::size_t from,
                                  std::vector<std::string>& refs);

/// Every complete reference in `html_prefix`.
std::vector<std::string> scan_image_references(std::string_view html_prefix);

}  // namespace hsim::content
