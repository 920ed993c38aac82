#include "content/microscape.hpp"

#include <gtest/gtest.h>

#include "content/gif.hpp"
#include "deflate/deflate.hpp"

namespace hsim::content {
namespace {

// Building the full site fits 42 images; do it once for the suite.
const MicroscapeSite& site() {
  static const MicroscapeSite s = build_microscape();
  return s;
}

TEST(MicroscapeTest, HtmlSizeNearFortyTwoKb) {
  const std::size_t target = 42 * 1024;
  EXPECT_NEAR(static_cast<double>(site().html.size()),
              static_cast<double>(target), 0.03 * target);
}

TEST(MicroscapeTest, FortyTwoImagesReferencedInOrder) {
  ASSERT_EQ(site().images.size(), 42u);
  const auto refs = scan_image_references(site().html);
  ASSERT_EQ(refs.size(), 42u);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(refs[i], site().images[i].path) << i;
  }
}

TEST(MicroscapeTest, StaticImageBytesMatchPaperTotal) {
  // Paper: 40 static GIFs totalling 103,299 bytes. Synthetic fitting lands
  // within a few percent.
  const double total = static_cast<double>(site().static_gif_bytes());
  EXPECT_NEAR(total, 103299.0, 0.08 * 103299.0);
  std::size_t statics = 0;
  for (const auto& img : site().images) {
    if (!img.animated) ++statics;
  }
  EXPECT_EQ(statics, 40u);
}

TEST(MicroscapeTest, AnimationBytesMatchPaperTotal) {
  const double total = static_cast<double>(site().animated_gif_bytes());
  EXPECT_NEAR(total, 24988.0, 0.15 * 24988.0);
}

TEST(MicroscapeTest, SizeHistogramMatchesPaper) {
  // 19 images under 1 KB, 7 of 1-2 KB, 6 of 2-3 KB.
  unsigned under_1k = 0, under_2k = 0, under_3k = 0;
  for (const auto& img : site().images) {
    if (img.animated) continue;
    const std::size_t n = img.gif_bytes.size();
    if (n < 1024) {
      ++under_1k;
    } else if (n < 2048) {
      ++under_2k;
    } else if (n < 3072) {
      ++under_3k;
    }
  }
  EXPECT_NEAR(under_1k, 19, 2);
  EXPECT_NEAR(under_2k, 7, 2);
  EXPECT_NEAR(under_3k, 6, 2);
}

TEST(MicroscapeTest, ImagesRangeFrom70BytesUp) {
  std::size_t smallest = SIZE_MAX, largest = 0;
  for (const auto& img : site().images) {
    smallest = std::min(smallest, img.gif_bytes.size());
    largest = std::max(largest, img.gif_bytes.size());
  }
  EXPECT_LE(smallest, 100u);   // paper: 70 B
  EXPECT_GE(largest, 30000u);  // paper: ~40 KB
}

TEST(MicroscapeTest, AllGifsDecode) {
  for (const auto& img : site().images) {
    const auto decoded = decode_gif(img.gif_bytes);
    EXPECT_TRUE(decoded.ok) << img.path << ": " << decoded.error;
    if (img.animated) {
      EXPECT_GT(decoded.frames.size(), 1u) << img.path;
    }
  }
}

TEST(MicroscapeTest, HtmlDeflatesByPaperFactor) {
  // Paper: 42 KB -> 11 KB, "more than a factor of three".
  const auto compressed = deflate::zlib_compress(site().html);
  const double factor = static_cast<double>(site().html.size()) /
                        static_cast<double>(compressed.size());
  EXPECT_GE(factor, 3.0);
  EXPECT_LE(factor, 5.5);
}

TEST(MicroscapeTest, DeterministicAcrossBuilds) {
  const MicroscapeSite a = build_microscape();
  const MicroscapeSite b = build_microscape();
  EXPECT_EQ(a.html, b.html);
  ASSERT_EQ(a.images.size(), b.images.size());
  for (std::size_t i = 0; i < a.images.size(); ++i) {
    EXPECT_EQ(a.images[i].gif_bytes, b.images[i].gif_bytes) << i;
  }
}

// Every experiment serves these bytes; any change to the image fitting, the
// GIF encoder or the HTML generator moves the digest.
TEST(MicroscapeTest, SiteBytesArePinned) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64
  auto mix = [&h](std::span<const std::uint8_t> bytes) {
    for (std::uint8_t b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  };
  for (const SiteImage& img : site().images) mix(img.gif_bytes);
  mix({reinterpret_cast<const std::uint8_t*>(site().html.data()),
       site().html.size()});
  EXPECT_EQ(h, 0xc5989c845b066525ull);
  EXPECT_EQ(site().total_image_bytes(), 125711u);
}

TEST(MicroscapeTest, ScanHandlesPartialPrefix) {
  const std::string& html = site().html;
  // Find the offset just after the 5th image tag closes.
  const auto all = scan_image_references(html);
  ASSERT_GE(all.size(), 6u);
  // Cut mid-way through the document; scanning must return only complete
  // tags and never crash.
  for (std::size_t cut : {100u, 1000u, 5000u, 20000u}) {
    const auto partial = scan_image_references(
        std::string_view(html).substr(0, cut));
    EXPECT_LE(partial.size(), all.size());
    for (std::size_t i = 0; i < partial.size(); ++i) {
      EXPECT_EQ(partial[i], all[i]);
    }
  }
}

TEST(MicroscapeTest, CssReplacementsCoverStaticImages) {
  const auto reps = site().css_replacements();
  EXPECT_EQ(reps.size(), 40u);
  const CssAnalysis analysis = analyze_replacements(reps);
  EXPECT_EQ(analysis.total_images, 40u);
  // Most small text/bullet/spacer images are replaceable; photos are not.
  EXPECT_GE(analysis.replaceable_images, 15u);
  EXPECT_LT(analysis.replaceable_images, 40u);
  // CSS markup is far smaller than the GIFs it replaces.
  EXPECT_GT(analysis.byte_reduction_factor(), 2.0);
  EXPECT_EQ(analysis.requests_saved, analysis.replaceable_images);
}

TEST(CssTest, SolutionsBannerSnippetIsPaperSized) {
  // The paper says the replacement "only takes up around 150 bytes".
  const std::string css = solutions_banner_css();
  EXPECT_GE(css.size(), 120u);
  EXPECT_LE(css.size(), 200u);
}

TEST(CssTest, Figure1SolutionsBannerRatio) {
  // Figure 1: a 682-byte GIF replaced by ~150 bytes => factor > 4.
  const auto& images = site().images;
  // Image 14 is fitted to the 682-byte target.
  const auto& banner = images[14];
  EXPECT_NEAR(static_cast<double>(banner.gif_bytes.size()), 682.0, 80.0);
  const double factor = static_cast<double>(banner.gif_bytes.size()) /
                        static_cast<double>(solutions_banner_css().size());
  EXPECT_GT(factor, 4.0);
}

TEST(CssTest, PhotosAreNotReplaceable) {
  const auto r = make_replacement("/images/hero.gif", ImageKind::kPhoto,
                                  40000, 400, 300);
  EXPECT_FALSE(r.replaceable);
  const auto r2 = make_replacement("/images/banner.gif",
                                   ImageKind::kTextBanner, 682, 120, 24);
  EXPECT_TRUE(r2.replaceable);
  EXPECT_GT(r2.replacement_bytes(), 0u);
  EXPECT_LT(r2.replacement_bytes(), 682u);
}

}  // namespace
}  // namespace hsim::content
