#include "content/microscape.hpp"

#include <gtest/gtest.h>

#include "content/gif.hpp"
#include "deflate/deflate.hpp"
#include "sim/random.hpp"

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

// Feeds the resume form growing prefixes of `html`, one ending at each of
// `cuts` (ascending), as a client does while the document arrives. Checks
// that the returned offset never moves backwards and returns every
// reference found.
std::vector<std::string> scan_at_cuts(std::string_view html,
                                      const std::vector<std::size_t>& cuts) {
  std::vector<std::string> refs;
  std::size_t from = 0;
  for (const std::size_t cut : cuts) {
    const std::size_t next =
        scan_image_references(html.substr(0, cut), from, refs);
    EXPECT_GE(next, from) << "cut " << cut;
    EXPECT_LE(next, cut) << "cut " << cut;
    from = next;
  }
  return refs;
}

std::vector<std::size_t> cuts_every(std::size_t step, std::size_t size) {
  std::vector<std::size_t> cuts;
  for (std::size_t cut = step; cut < size; cut += step) cuts.push_back(cut);
  cuts.push_back(size);
  return cuts;
}

TEST(MicroscapeTest, ResumedScanEqualsWholeScanForAnySegmentation) {
  const std::string& html = site().html;
  const auto whole = scan_image_references(html);
  ASSERT_EQ(whole.size(), 42u);
  for (const std::size_t step : {1u, 536u, 1460u}) {
    EXPECT_EQ(scan_at_cuts(html, cuts_every(step, html.size())), whole)
        << "step " << step;
  }
  sim::Rng rng(24);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::size_t> cuts;
    for (std::size_t cut = 0; cut < html.size();) {
      cut = std::min(html.size(),
                     cut + static_cast<std::size_t>(rng.uniform(1, 3000)));
      cuts.push_back(cut);
    }
    EXPECT_EQ(scan_at_cuts(html, cuts), whole) << "round " << round;
  }
}

TEST(MicroscapeTest, ResumedScanSurvivesCutsInsideATag) {
  const std::string& html = site().html;
  const auto whole = scan_image_references(html);
  for (std::size_t img = html.find("<img "); img != std::string::npos;
       img = html.find("<img ", img + 1)) {
    const std::size_t src = html.find("src=\"", img);
    ASSERT_NE(src, std::string::npos);
    const std::size_t quote = html.find('"', src + 5);
    ASSERT_NE(quote, std::string::npos);
    // Inside "<img ", inside "src=\"", just past it, and just before and
    // after the closing quote.
    for (const std::size_t cut :
         {img + 1, img + 4, src + 2, src + 5, quote, quote + 1}) {
      EXPECT_EQ(scan_at_cuts(html, {cut, html.size()}), whole)
          << "cut " << cut;
    }
  }
}

TEST(MicroscapeTest, ImgWithoutSrcTakesTheNextSrcInALaterTag) {
  // Scanning pairs each "<img " with the next src="..." wherever it sits,
  // so a src-less image adopts the script's. Resuming keeps that quirk.
  const std::string html =
      "<p><img src=\"/a.gif\"><img alt=\"spacer\" width=3></p>"
      "<script src=\"/s.js\"></script><img src=\"/b.gif\">";
  const std::vector<std::string> expected = {"/a.gif", "/s.js", "/b.gif"};
  EXPECT_EQ(scan_image_references(html), expected);
  EXPECT_EQ(scan_at_cuts(html, cuts_every(1, html.size())), expected);
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
