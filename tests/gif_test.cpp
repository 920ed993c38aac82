#include "content/gif.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sim/random.hpp"

namespace hsim::content {
namespace {

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

SyntheticSpec spec_of(ImageKind kind, unsigned width, unsigned height,
                      unsigned colors, std::uint64_t seed) {
  SyntheticSpec spec;
  spec.kind = kind;
  spec.width = width;
  spec.height = height;
  spec.colors = colors;
  spec.seed = seed;
  return spec;
}

/// Offset of the image descriptor in a single-frame encode_gif output: the
/// 13-byte header, then the global palette.
std::size_t descriptor_offset(const std::vector<std::uint8_t>& gif) {
  return 13 + 3 * (2u << (gif[10] & 0x07));
}

/// The root code-size byte follows the 10-byte image descriptor.
std::size_t code_size_offset(const std::vector<std::uint8_t>& gif) {
  return descriptor_offset(gif) + 10;
}

TEST(LzwTest, RoundtripSimpleSequence) {
  std::vector<std::uint8_t> data = {0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3};
  const auto compressed = gif_lzw_compress(data, 2);
  const auto decompressed = gif_lzw_decompress(compressed, 2, data.size());
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_EQ(*decompressed, data);
}

TEST(LzwTest, RoundtripEmpty) {
  const auto compressed = gif_lzw_compress({}, 2);
  const auto decompressed = gif_lzw_decompress(compressed, 2, 0);
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_TRUE(decompressed->empty());
}

TEST(LzwTest, RoundtripSingleSymbol) {
  std::vector<std::uint8_t> data = {3};
  const auto decompressed =
      gif_lzw_decompress(gif_lzw_compress(data, 2), 2, data.size());
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_EQ(*decompressed, data);
}

TEST(LzwTest, LongRunsCompress) {
  std::vector<std::uint8_t> data(50'000, 1);
  const auto compressed = gif_lzw_compress(data, 2);
  EXPECT_LT(compressed.size(), data.size() / 20);
  const auto decompressed = gif_lzw_decompress(compressed, 2, data.size());
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_EQ(*decompressed, data);
}

TEST(LzwTest, DictionaryResetAt4096Codes) {
  // Enough distinct material to overflow the 12-bit code space: random
  // 8-bit symbols force dictionary growth to the reset point.
  sim::Rng rng(3);
  std::vector<std::uint8_t> data(60'000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  const auto compressed = gif_lzw_compress(data, 8);
  const auto decompressed = gif_lzw_decompress(compressed, 8, data.size());
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_EQ(*decompressed, data);
}

TEST(LzwTest, KOmegaKCase) {
  // "ababab..." triggers the code == dict.size() special case early.
  std::vector<std::uint8_t> data;
  for (int i = 0; i < 100; ++i) {
    data.push_back(0);
    data.push_back(1);
  }
  const auto decompressed =
      gif_lzw_decompress(gif_lzw_compress(data, 2), 2, data.size());
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_EQ(*decompressed, data);
}

TEST(LzwTest, RejectsGarbage) {
  std::vector<std::uint8_t> junk = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF};
  // May decode some prefix, but without a valid EOI the decoder must
  // report failure rather than silently succeed.
  const auto result = gif_lzw_decompress(junk, 2, 1024);
  EXPECT_FALSE(result.has_value());
}

TEST(LzwTest, RejectsCodeSizeOutOfRange) {
  // Root sizes outside the encoder's 2..8 would size the dictionary (and,
  // from 32 up, a shift) from a hostile byte; they are rejected up front.
  const std::vector<std::uint8_t> zeros(16, 0);
  for (unsigned size : {0u, 1u, 9u, 12u, 20u, 31u, 32u, 255u}) {
    EXPECT_FALSE(gif_lzw_decompress(zeros, size, 1024).has_value()) << size;
  }
  const std::vector<std::uint8_t> data = {0, 1, 1, 0, 1};
  for (unsigned size = 2; size <= 8; ++size) {
    const auto out =
        gif_lzw_decompress(gif_lzw_compress(data, size), size, data.size());
    ASSERT_TRUE(out.has_value()) << size;
    EXPECT_EQ(*out, data) << size;
  }

  const auto gif = encode_gif(generate_image(spec_of(ImageKind::kLogo, 20, 10,
                                                     16, 3)));
  ASSERT_TRUE(decode_gif(gif).ok);
  for (std::uint8_t size : {0, 1, 9, 20, 32, 255}) {
    auto bad = gif;
    bad[code_size_offset(bad)] = size;
    const GifDecodeResult r = decode_gif(bad);
    EXPECT_FALSE(r.ok) << int{size};
    EXPECT_EQ(r.error, "bad lzw code size") << int{size};
  }
}

TEST(LzwTest, OutputCapStopsExpansion) {
  // A flat 512x512 frame compresses about 330:1, so without a cap a short
  // hostile stream allocates hundreds of times its own size.
  const std::vector<std::uint8_t> flat(512 * 512, 0);
  const auto compressed = gif_lzw_compress(flat, 2);
  ASSERT_LT(compressed.size(), 1000u);
  const auto full = gif_lzw_decompress(compressed, 2, flat.size());
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, flat);
  EXPECT_FALSE(gif_lzw_decompress(compressed, 2, flat.size() - 1));
  EXPECT_FALSE(gif_lzw_decompress(compressed, 2, 16 * 16));
  EXPECT_FALSE(gif_lzw_decompress(compressed, 2, 0));
}

TEST(LzwTest, MutatedStreamsStayUnderTheCap) {
  sim::Rng rng(41);
  std::vector<std::uint8_t> data(4000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform(0, 15));
  const auto compressed = gif_lzw_compress(data, 4);
  for (int round = 0; round < 500; ++round) {
    auto m = compressed;
    const int flips = static_cast<int>(rng.uniform(1, 4));
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(m.size()) - 1));
      m[at] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    }
    if (rng.chance(0.3)) {
      m.resize(static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(m.size()))));
    }
    const std::size_t cap = rng.chance(0.5) ? data.size() : data.size() / 2;
    const auto out = gif_lzw_decompress(m, 4, cap);
    if (out) {
      EXPECT_LE(out->size(), cap) << round;
    }
  }
}

class LzwProperty : public ::testing::TestWithParam<int> {};

TEST_P(LzwProperty, RandomIndexStreamsRoundtrip) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 5);
  const unsigned mcs = static_cast<unsigned>(rng.uniform(2, 8));
  const std::size_t n = static_cast<std::size_t>(rng.uniform(0, 20'000));
  std::vector<std::uint8_t> data(n);
  const std::uint8_t max_sym = static_cast<std::uint8_t>((1u << mcs) - 1);
  // Mixture of runs and noise.
  std::size_t i = 0;
  while (i < n) {
    if (rng.chance(0.5)) {
      const auto run = static_cast<std::size_t>(rng.uniform(1, 200));
      const auto sym = static_cast<std::uint8_t>(rng.uniform(0, max_sym));
      for (std::size_t j = 0; j < run && i < n; ++j) data[i++] = sym;
    } else {
      data[i++] = static_cast<std::uint8_t>(rng.uniform(0, max_sym));
    }
  }
  const auto decompressed =
      gif_lzw_decompress(gif_lzw_compress(data, mcs), mcs, data.size());
  ASSERT_TRUE(decompressed.has_value());
  EXPECT_EQ(*decompressed, data);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LzwProperty, ::testing::Range(0, 20));

TEST(GifTest, EncodeDecodeStaticImage) {
  SyntheticSpec spec;
  spec.kind = ImageKind::kLogo;
  spec.width = 60;
  spec.height = 40;
  spec.colors = 16;
  spec.seed = 7;
  const IndexedImage img = generate_image(spec);
  const auto gif = encode_gif(img);
  const GifDecodeResult decoded = decode_gif(gif);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  ASSERT_EQ(decoded.frames.size(), 1u);
  EXPECT_EQ(decoded.frames[0].width, img.width);
  EXPECT_EQ(decoded.frames[0].height, img.height);
  EXPECT_EQ(decoded.frames[0].pixels, img.pixels);
  EXPECT_EQ(decoded.frames[0].palette, img.palette);
}

TEST(GifTest, SpacerGifIsTiny) {
  // The paper's smallest image is 70 bytes — a 1x1-ish invisible spacer.
  SyntheticSpec spec;
  spec.kind = ImageKind::kSpacer;
  spec.width = 1;
  spec.height = 1;
  spec.colors = 2;
  const auto gif = encode_gif(generate_image(spec));
  EXPECT_LT(gif.size(), 80u);
  EXPECT_TRUE(decode_gif(gif).ok);
}

TEST(GifTest, EncodeDecodeAnimation) {
  SyntheticSpec spec;
  spec.kind = ImageKind::kLogo;
  spec.width = 40;
  spec.height = 30;
  spec.colors = 8;
  spec.seed = 11;
  const Animation anim = generate_animation(spec, 5);
  const auto gif = encode_animated_gif(anim);
  const GifDecodeResult decoded = decode_gif(gif);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  ASSERT_EQ(decoded.frames.size(), 5u);
  for (std::size_t f = 0; f < 5; ++f) {
    EXPECT_EQ(decoded.frames[f].pixels, anim.frames[f].pixels) << f;
  }
}

TEST(GifTest, AnimationLargerThanSingleFrame) {
  SyntheticSpec spec;
  spec.kind = ImageKind::kLogo;
  spec.width = 40;
  spec.height = 30;
  spec.colors = 8;
  const auto single = encode_gif(generate_image(spec));
  const auto anim = encode_animated_gif(generate_animation(spec, 8));
  EXPECT_GT(anim.size(), single.size());
}

TEST(GifTest, DecodeRejectsCorruptSignature) {
  std::vector<std::uint8_t> junk = {'J', 'P', 'E', 'G', '0', '0',
                                    0,   0,   0,   0,   0,   0,  0};
  EXPECT_FALSE(decode_gif(junk).ok);
}

TEST(GifTest, DecodeRejectsTruncation) {
  SyntheticSpec spec;
  spec.width = 30;
  spec.height = 30;
  auto gif = encode_gif(generate_image(spec));
  gif.resize(gif.size() / 2);
  EXPECT_FALSE(decode_gif(gif).ok);
}

TEST(GifTest, PhotoCompressesWorseThanBanner) {
  SyntheticSpec photo;
  photo.kind = ImageKind::kPhoto;
  photo.width = 100;
  photo.height = 80;
  photo.colors = 128;
  SyntheticSpec banner = photo;
  banner.kind = ImageKind::kTextBanner;
  banner.colors = 4;
  const auto photo_gif = encode_gif(generate_image(photo));
  const auto banner_gif = encode_gif(generate_image(banner));
  EXPECT_GT(photo_gif.size(), 2 * banner_gif.size());
}

TEST(GifTest, DecodeRejectsFrameThatExpandsPastItsSize) {
  IndexedImage big;
  big.width = 512;
  big.height = 512;
  big.palette = {0x000000, 0xFFFFFF};
  big.pixels.assign(512 * 512, 0);
  auto gif = encode_gif(big);
  ASSERT_TRUE(decode_gif(gif).ok);
  // The same code stream behind a descriptor that claims a 16x16 frame.
  const std::size_t desc = descriptor_offset(gif);
  gif[desc + 5] = 16;
  gif[desc + 6] = 0;
  gif[desc + 7] = 16;
  gif[desc + 8] = 0;
  const GifDecodeResult r = decode_gif(gif);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "lzw decode failed");
}

// The encoder's bytes are part of the site every experiment serves; these
// pins catch any change to them directly rather than through the goldens.
TEST(GifTest, EncoderBytesArePinned) {
  const auto logo =
      encode_gif(generate_image(spec_of(ImageKind::kLogo, 60, 40, 16, 7)));
  EXPECT_EQ(logo.size(), 425u);
  EXPECT_EQ(fnv1a64(logo), 0xdd503e65173a3ccfull);

  // 128 colours of photo noise overflow the 12-bit code space, so this pin
  // covers the dictionary reset.
  const auto photo =
      encode_gif(generate_image(spec_of(ImageKind::kPhoto, 100, 80, 128, 5)));
  EXPECT_EQ(photo.size(), 10063u);
  EXPECT_EQ(fnv1a64(photo), 0x236787b9b3f8df01ull);

  const auto anim = encode_animated_gif(
      generate_animation(spec_of(ImageKind::kLogo, 40, 30, 8, 11), 5));
  EXPECT_EQ(anim.size(), 1447u);
  EXPECT_EQ(fnv1a64(anim), 0xf1c4ac43b87deb0full);
}

// Seeded mutation over encoder outputs: flipped bytes, truncation and
// spliced sub-blocks. Every mutant either decodes to whole frames or fails
// with one of the decoder's typed errors.
TEST(GifTest, MutatedGifsFailWithTypedErrors) {
  const std::set<std::string> typed = {"truncated header",
                                       "bad signature",
                                       "truncated palette",
                                       "missing trailer",
                                       "truncated extension",
                                       "truncated extension data",
                                       "unknown block",
                                       "truncated image descriptor",
                                       "truncated local palette",
                                       "truncated lzw header",
                                       "bad lzw code size",
                                       "truncated image data",
                                       "lzw decode failed",
                                       "no frames"};
  const std::vector<std::vector<std::uint8_t>> seeds = {
      encode_gif(generate_image(spec_of(ImageKind::kTextBanner, 48, 24, 4, 2))),
      encode_gif(generate_image(spec_of(ImageKind::kPhoto, 40, 30, 64, 9))),
      encode_animated_gif(
          generate_animation(spec_of(ImageKind::kLogo, 24, 16, 8, 4), 3))};
  sim::Rng rng(1997);
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(n) - 1));
  };
  std::size_t decoded = 0, failed = 0;
  for (const auto& seed : seeds) {
    for (int round = 0; round < 400; ++round) {
      auto m = seed;
      switch (rng.uniform(0, 2)) {
        case 0: {  // flip one to four bytes
          const int flips = static_cast<int>(rng.uniform(1, 4));
          for (int f = 0; f < flips; ++f) {
            m[pick(m.size())] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
          }
          break;
        }
        case 1:  // truncate
          m.resize(pick(m.size()));
          break;
        default: {  // splice a slice of some encoder output into this one
          const auto& donor = seeds[pick(seeds.size())];
          const std::size_t from = pick(donor.size());
          const std::size_t len =
              std::min<std::size_t>(donor.size() - from, 1 + pick(300));
          m.insert(m.begin() + static_cast<std::ptrdiff_t>(pick(m.size())),
                   donor.begin() + static_cast<std::ptrdiff_t>(from),
                   donor.begin() + static_cast<std::ptrdiff_t>(from + len));
          break;
        }
      }
      const GifDecodeResult r = decode_gif(m);
      if (r.ok) {
        ++decoded;
        for (const IndexedImage& frame : r.frames) {
          EXPECT_EQ(frame.pixels.size(),
                    static_cast<std::size_t>(frame.width) * frame.height);
        }
      } else {
        ++failed;
        EXPECT_TRUE(typed.count(r.error)) << "untyped error: " << r.error;
      }
    }
  }
  // Both outcomes occur, so the mutations reach past the header checks.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(failed, 0u);
}

}  // namespace
}  // namespace hsim::content
