#include "content/png.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "content/gif.hpp"
#include "content/mng.hpp"
#include "deflate/checksum.hpp"
#include "deflate/deflate.hpp"
#include "deflate/inflate.hpp"
#include "sim/random.hpp"

namespace hsim::content {
namespace {

IndexedImage make_image(ImageKind kind, unsigned w, unsigned h,
                        unsigned colors, std::uint64_t seed = 3) {
  SyntheticSpec spec;
  spec.kind = kind;
  spec.width = w;
  spec.height = h;
  spec.colors = colors;
  spec.seed = seed;
  return generate_image(spec);
}

TEST(PngTest, EncodeDecodeRoundtrip) {
  const IndexedImage img = make_image(ImageKind::kLogo, 60, 40, 16);
  const auto png = encode_png(img);
  const PngDecodeResult decoded = decode_png(png);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_EQ(decoded.image.width, img.width);
  EXPECT_EQ(decoded.image.height, img.height);
  EXPECT_EQ(decoded.image.pixels, img.pixels);
  EXPECT_EQ(decoded.image.palette, img.palette);
  EXPECT_TRUE(decoded.had_gamma);
}

TEST(PngTest, RoundtripAllBitDepths) {
  for (unsigned colors : {2u, 4u, 16u, 128u}) {
    const IndexedImage img = make_image(ImageKind::kLogo, 33, 21, colors);
    const PngDecodeResult decoded = decode_png(encode_png(img));
    ASSERT_TRUE(decoded.ok) << colors << ": " << decoded.error;
    EXPECT_EQ(decoded.image.pixels, img.pixels) << colors;
  }
}

TEST(PngTest, OddWidthsPackCorrectly) {
  // Sub-byte depths with widths that leave partial trailing bytes.
  for (unsigned w : {1u, 3u, 7u, 9u, 17u}) {
    const IndexedImage img = make_image(ImageKind::kBullet, w, 5, 4, w);
    const PngDecodeResult decoded = decode_png(encode_png(img));
    ASSERT_TRUE(decoded.ok) << w;
    EXPECT_EQ(decoded.image.pixels, img.pixels) << w;
  }
}

TEST(PngTest, GammaChunkAddsSixteenBytes) {
  // The paper: "the converted PNG files contain gamma information ... this
  // adds 16 bytes per image".
  const IndexedImage img = make_image(ImageKind::kBullet, 16, 16, 4);
  PngOptions with, without;
  with.include_gamma = true;
  without.include_gamma = false;
  EXPECT_EQ(encode_png(img, with).size(),
            encode_png(img, without).size() + 16);
}

TEST(PngTest, AdaptiveFilteringHelpsPhotos) {
  const IndexedImage img = make_image(ImageKind::kPhoto, 120, 90, 128);
  PngOptions adaptive, fixed;
  adaptive.adaptive_filtering = true;
  fixed.adaptive_filtering = false;
  EXPECT_LE(encode_png(img, adaptive).size(), encode_png(img, fixed).size());
  // And both decode back to the same pixels.
  EXPECT_EQ(decode_png(encode_png(img, adaptive)).image.pixels, img.pixels);
  EXPECT_EQ(decode_png(encode_png(img, fixed)).image.pixels, img.pixels);
}

TEST(PngTest, RejectsCorruptCrc) {
  const IndexedImage img = make_image(ImageKind::kBullet, 16, 16, 4);
  auto png = encode_png(img);
  png[20] ^= 0xFF;  // inside IHDR data
  EXPECT_FALSE(decode_png(png).ok);
}

TEST(PngTest, RejectsBadSignature) {
  std::vector<std::uint8_t> junk(32, 0);
  EXPECT_FALSE(decode_png(junk).ok);
}

TEST(PngTest, LargeIdatFailsAtTheCap) {
  // A 1x1 image whose IDAT inflates to a megabyte: the decoder stops at the
  // 2 bytes (filter byte + one row byte) the header allows.
  std::vector<std::uint8_t> png = {0x89, 'P', 'N', 'G', 0x0D, 0x0A, 0x1A, 0x0A};
  std::vector<std::uint8_t> ihdr;
  append_u32be(ihdr, 1);
  append_u32be(ihdr, 1);
  ihdr.insert(ihdr.end(), {8, 3, 0, 0, 0});
  append_chunk(png, "IHDR", ihdr);
  append_chunk(png, "PLTE", std::vector<std::uint8_t>{1, 2, 3});
  append_chunk(png, "IDAT",
               deflate::zlib_compress(std::vector<std::uint8_t>(1 << 20, 0)));
  append_chunk(png, "IEND", {});
  const PngDecodeResult r = decode_png(png);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, std::string("idat: ") + deflate::kOutputCapError);
}

TEST(PngVsGifTest, PngSmallerOnLargeImages) {
  // The headline PNG result: standard conversion shrinks the big images.
  const IndexedImage img = make_image(ImageKind::kPhoto, 200, 150, 128);
  const auto gif = encode_gif(img);
  const auto png = encode_png(img);
  EXPECT_LT(png.size(), gif.size());
}

TEST(PngVsGifTest, PngLargerOnTinyImages) {
  // "PNG does not perform as well on the very low bit depth images in the
  // sub-200 byte category because its checksums and other information make
  // the file a bit bigger."
  const IndexedImage img = make_image(ImageKind::kSpacer, 4, 4, 2);
  const auto gif = encode_gif(img);
  const auto png = encode_png(img);
  EXPECT_LT(gif.size(), 200u);
  EXPECT_GT(png.size(), gif.size());
}

TEST(MngTest, EncodeDecodeRoundtrip) {
  SyntheticSpec spec;
  spec.kind = ImageKind::kLogo;
  spec.width = 40;
  spec.height = 30;
  spec.colors = 16;
  spec.seed = 21;
  const Animation anim = generate_animation(spec, 6);
  const auto mng = encode_mng(anim);
  const MngDecodeResult decoded = decode_mng(mng);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  ASSERT_EQ(decoded.animation.frames.size(), 6u);
  for (std::size_t f = 0; f < 6; ++f) {
    EXPECT_EQ(decoded.animation.frames[f].pixels, anim.frames[f].pixels) << f;
  }
}

TEST(MngTest, SmallerThanAnimatedGif) {
  // The paper: 24,988 bytes of animated GIF became 16,329 bytes of MNG.
  SyntheticSpec spec;
  spec.kind = ImageKind::kLogo;
  spec.width = 80;
  spec.height = 60;
  spec.colors = 16;
  spec.seed = 5;
  const Animation anim = generate_animation(spec, 8);
  const auto gif = encode_animated_gif(anim);
  const auto mng = encode_mng(anim);
  EXPECT_LT(mng.size(), gif.size());
}

TEST(MngTest, RejectsGarbage) {
  std::vector<std::uint8_t> junk(64, 7);
  EXPECT_FALSE(decode_mng(junk).ok);
}

TEST(MngTest, RejectsZeroLengthIhdr) {
  // Signature, a zero-length IHDR and its CRC field: 20 bytes.
  std::vector<std::uint8_t> mng = {0x8A, 'M', 'N', 'G', 0x0D, 0x0A, 0x1A, 0x0A};
  append_chunk(mng, "IHDR", {});
  ASSERT_EQ(mng.size(), 20u);
  const MngDecodeResult r = decode_mng(mng);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "bad IHDR");
}

TEST(MngTest, DeltaPastFrameSizeFailsAtTheCap) {
  auto mng = encode_mng(
      generate_animation(SyntheticSpec{ImageKind::kLogo, 8, 8, 4, 2}, 2));
  // Replace the one delta frame (64 pixels) with a 64 KB stream.
  std::size_t pos = 8;
  while (std::string(mng.begin() + pos + 4, mng.begin() + pos + 8) != "DIDT") {
    pos += 12 + read_u32be(mng, pos);
  }
  mng.resize(pos);
  append_chunk(mng, "DIDT",
               deflate::zlib_compress(std::vector<std::uint8_t>(1 << 16, 0)));
  append_chunk(mng, "MEND", {});
  const MngDecodeResult r = decode_mng(mng);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, std::string("delta inflate: ") + deflate::kOutputCapError);
}

TEST(MngTest, CorruptChunkCrcIsRejected) {
  auto mng = encode_mng(
      generate_animation(SyntheticSpec{ImageKind::kLogo, 8, 8, 4, 2}, 2));
  ASSERT_TRUE(decode_mng(mng).ok);
  std::size_t pos = 8;
  while (std::string(mng.begin() + pos + 4, mng.begin() + pos + 8) != "PLTE") {
    pos += 12 + read_u32be(mng, pos);
  }
  ASSERT_GT(read_u32be(mng, pos), 0u);
  mng[pos + 8] ^= 0x01;  // the first palette byte; the CRC stays stale
  const MngDecodeResult r = decode_mng(mng);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "chunk crc mismatch");
}

/// Byte offsets of the chunks after the 8-byte signature, as far as their
/// lengths stay inside the file.
std::vector<std::size_t> chunk_offsets(const std::vector<std::uint8_t>& file) {
  std::vector<std::size_t> out;
  for (std::size_t pos = 8; pos + 12 <= file.size();
       pos += 12 + read_u32be(file, pos)) {
    if (pos + 12 + read_u32be(file, pos) > file.size()) break;
    out.push_back(pos);
  }
  return out;
}

/// Seeded mutation over encoder outputs: flipped bytes, flipped chunk bodies
/// with their CRC fixed up (so the mutant reaches the inflater and the
/// scanline decoder), truncation and whole chunks spliced in from another
/// output. Returns every mutant's error ("" for a mutant that decoded).
template <typename Decode>
std::vector<std::string> mutate_and_decode(
    const std::vector<std::vector<std::uint8_t>>& seeds, Decode decode) {
  sim::Rng rng(1997);
  auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<std::string> errors;
  for (const auto& seed : seeds) {
    for (int round = 0; round < 400; ++round) {
      auto m = seed;
      const std::vector<std::size_t> chunks = chunk_offsets(m);
      switch (rng.uniform(0, 3)) {
        case 0: {  // flip one to four bytes anywhere
          const int flips = static_cast<int>(rng.uniform(1, 4));
          for (int f = 0; f < flips; ++f) {
            m[pick(m.size())] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
          }
          break;
        }
        case 1: {  // flip a chunk body byte and fix the chunk's CRC
          const std::size_t at = chunks[pick(chunks.size())];
          const std::uint32_t len = read_u32be(m, at);
          if (len == 0) break;
          m[at + 8 + pick(len)] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
          std::vector<std::uint8_t> fixed(m.begin(), m.begin() + at);
          append_chunk(fixed, reinterpret_cast<const char*>(&m[at + 4]),
                       std::span(&m[at + 8], len));
          fixed.insert(fixed.end(), m.begin() + at + 12 + len, m.end());
          m = std::move(fixed);
          break;
        }
        case 2:  // truncate
          m.resize(pick(m.size()));
          break;
        default: {  // splice a whole chunk of some output in at a boundary
          const auto& donor = seeds[pick(seeds.size())];
          const std::vector<std::size_t> donor_chunks = chunk_offsets(donor);
          const std::size_t from = donor_chunks[pick(donor_chunks.size())];
          const std::size_t len = 12 + read_u32be(donor, from);
          const std::size_t to = chunks[pick(chunks.size())];
          m.insert(m.begin() + static_cast<std::ptrdiff_t>(to),
                   donor.begin() + static_cast<std::ptrdiff_t>(from),
                   donor.begin() + static_cast<std::ptrdiff_t>(from + len));
          break;
        }
      }
      errors.push_back(decode(m));
    }
  }
  return errors;
}

/// An inflater error, as the decoders pass it on after their prefix.
bool is_inflate_error(const std::string& e) {
  return e == deflate::kOutputCapError || e == "truncated stream" ||
         e.rfind("zlib: ", 0) == 0 || e.rfind("deflate: ", 0) == 0;
}

const std::set<std::string> kScanlineErrors = {
    "unsupported format (only indexed)", "incomplete png", "bad IHDR",
    "scanline size mismatch", "bad filter"};

bool is_scanline_error(const std::string& e) {
  return kScanlineErrors.count(e) != 0 ||
         (e.rfind("idat: ", 0) == 0 && is_inflate_error(e.substr(6)));
}

TEST(PngTest, MutatedPngsFailWithTypedErrors) {
  const std::vector<std::vector<std::uint8_t>> seeds = {
      encode_png(make_image(ImageKind::kTextBanner, 48, 24, 4, 2)),
      encode_png(make_image(ImageKind::kPhoto, 40, 30, 64, 9)),
      encode_png(make_image(ImageKind::kBullet, 9, 7, 2, 4))};
  std::size_t decoded = 0, past_crc = 0;
  for (const std::string& e : mutate_and_decode(seeds, [](const auto& m) {
         const PngDecodeResult r = decode_png(m);
         if (r.ok) {
           EXPECT_EQ(r.image.pixels.size(),
                     static_cast<std::size_t>(r.image.width) * r.image.height);
         }
         return r.ok ? std::string() : r.error;
       })) {
    if (e.empty()) {
      ++decoded;
      continue;
    }
    const bool typed = e == "bad signature" || e == "truncated chunk" ||
                       e == "chunk crc mismatch" || is_scanline_error(e);
    EXPECT_TRUE(typed) << "untyped error: " << e;
    if (e.rfind("idat: ", 0) == 0 || e == "bad filter") ++past_crc;
  }
  // Mutants decode, and others fail inside the inflater or the scanlines.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(past_crc, 0u);
}

TEST(MngTest, MutatedMngsFailWithTypedErrors) {
  const std::vector<std::vector<std::uint8_t>> seeds = {
      encode_mng(generate_animation(SyntheticSpec{ImageKind::kLogo, 24, 16, 8, 4}, 3)),
      encode_mng(generate_animation(SyntheticSpec{ImageKind::kBullet, 7, 5, 2, 8}, 2))};
  std::size_t decoded = 0, past_header = 0;
  for (const std::string& e : mutate_and_decode(seeds, [](const auto& m) {
         const MngDecodeResult r = decode_mng(m);
         if (r.ok) {
           for (const IndexedImage& frame : r.animation.frames) {
             EXPECT_EQ(frame.pixels.size(),
                       static_cast<std::size_t>(frame.width) * frame.height);
           }
         }
         return r.ok ? std::string() : r.error;
       })) {
    if (e.empty()) {
      ++decoded;
      continue;
    }
    const bool typed =
        e == "bad signature" || e == "truncated chunk" ||
        e == "chunk crc mismatch" || e == "bad IHDR" ||
        e == "delta before first frame" || e == "delta size mismatch" ||
        e == "incomplete mng" ||
        (e.rfind("first frame: ", 0) == 0 && is_scanline_error(e.substr(13))) ||
        (e.rfind("delta inflate: ", 0) == 0 && is_inflate_error(e.substr(15)));
    EXPECT_TRUE(typed) << "untyped error: " << e;
    if (e.rfind("first frame: ", 0) == 0 || e.rfind("delta", 0) == 0) {
      ++past_header;
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(past_header, 0u);
}

}  // namespace
}  // namespace hsim::content
