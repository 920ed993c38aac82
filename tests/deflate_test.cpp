#include "deflate/deflate.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "deflate/checksum.hpp"
#include "deflate/inflate.hpp"
#include "sim/random.hpp"

namespace hsim::deflate {
namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

std::vector<std::uint8_t> roundtrip(const std::vector<std::uint8_t>& input,
                                    int level) {
  const auto compressed = zlib_compress(input, DeflateOptions{level});
  InflateResult r = zlib_decompress(compressed, input.size());
  EXPECT_TRUE(r.ok) << r.error;
  return r.data;
}

TEST(ChecksumTest, Adler32KnownVectors) {
  // "Wikipedia" has a documented Adler-32 of 0x11E60398.
  const auto data = bytes_of("Wikipedia");
  EXPECT_EQ(adler32(data), 0x11E60398u);
  EXPECT_EQ(adler32(std::span<const std::uint8_t>{}), 1u);
}

TEST(ChecksumTest, Adler32Incremental) {
  const auto data = bytes_of("The quick brown fox jumps over the lazy dog");
  const std::uint32_t whole = adler32(data);
  std::uint32_t running = kAdlerInit;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    const std::size_t n = std::min<std::size_t>(7, data.size() - i);
    running = adler32(std::span(data).subspan(i, n), running);
  }
  EXPECT_EQ(running, whole);
}

TEST(ChecksumTest, Crc32KnownVectors) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const auto data = bytes_of("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0u);
}

TEST(ChecksumTest, Crc32Incremental) {
  const auto data = bytes_of("incremental crc check data 0123456789");
  const std::uint32_t whole = crc32(data);
  std::uint32_t running = kCrcInit;
  for (std::size_t i = 0; i < data.size(); i += 5) {
    const std::size_t n = std::min<std::size_t>(5, data.size() - i);
    running = crc32(std::span(data).subspan(i, n), running);
  }
  EXPECT_EQ(running, whole);
}

TEST(DeflateTest, EmptyInputRoundtrips) {
  EXPECT_EQ(roundtrip({}, 6), std::vector<std::uint8_t>{});
}

TEST(DeflateTest, SingleByteRoundtrips) {
  EXPECT_EQ(roundtrip({42}, 6), std::vector<std::uint8_t>{42});
}

TEST(DeflateTest, AsciiTextRoundtrips) {
  const auto input = bytes_of(
      "It was the best of times, it was the worst of times, it was the age "
      "of wisdom, it was the age of foolishness, it was the epoch of belief, "
      "it was the epoch of incredulity.");
  EXPECT_EQ(roundtrip(input, 6), input);
}

TEST(DeflateTest, RepetitiveTextCompressesWell) {
  std::string s;
  for (int i = 0; i < 500; ++i) s += "<td><img src=\"/images/dot.gif\"></td>";
  const auto input = bytes_of(s);
  const auto compressed = zlib_compress(input, DeflateOptions{6});
  EXPECT_LT(compressed.size(), input.size() / 10);
  EXPECT_EQ(zlib_decompress(compressed, input.size()).data, input);
}

TEST(DeflateTest, HtmlLikeTextHitsPaperCompressionFactor) {
  // The paper reports HTML compressing "more than a factor of three".
  std::string html = "<html><head><title>Test page</title></head><body>";
  sim::Rng rng(5);
  const char* words[] = {"solutions", "products",  "download", "support",
                         "internet",  "netscape",  "microsoft", "explorer",
                         "homepage",  "navigate",  "software",  "services"};
  for (int i = 0; i < 400; ++i) {
    html += "<tr><td align=\"left\" valign=\"top\"><a href=\"/";
    html += words[rng.uniform(0, 11)];
    html += ".html\"><img src=\"/images/";
    html += words[rng.uniform(0, 11)];
    html += ".gif\" width=\"88\" height=\"31\" border=\"0\" alt=\"";
    html += words[rng.uniform(0, 11)];
    html += "\"></a></td></tr>\n";
  }
  html += "</body></html>";
  const auto input = bytes_of(html);
  const auto compressed = zlib_compress(input, DeflateOptions{6});
  EXPECT_LT(compressed.size() * 3, input.size());
  EXPECT_EQ(zlib_decompress(compressed, input.size()).data, input);
}

TEST(DeflateTest, IncompressibleDataSurvives) {
  sim::Rng rng(9);
  std::vector<std::uint8_t> input(50'000);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_u32());
  const auto compressed = zlib_compress(input, DeflateOptions{6});
  // Random bytes do not compress; stored blocks keep expansion tiny.
  EXPECT_LT(compressed.size(), input.size() + input.size() / 100 + 64);
  EXPECT_EQ(zlib_decompress(compressed, input.size()).data, input);
}

TEST(DeflateTest, AllLevelsRoundtrip) {
  std::string s;
  for (int i = 0; i < 200; ++i) {
    s += "line " + std::to_string(i % 17) + ": the rain in spain\n";
  }
  const auto input = bytes_of(s);
  for (int level = 0; level <= 9; ++level) {
    EXPECT_EQ(roundtrip(input, level), input) << "level " << level;
  }
}

TEST(DeflateTest, LargeInputSpanningMultipleBlocks) {
  std::vector<std::uint8_t> input;
  sim::Rng rng(13);
  // A mix of compressible runs and random stretches, > 200 KB.
  for (int chunk = 0; chunk < 40; ++chunk) {
    if (chunk % 2 == 0) {
      input.insert(input.end(), 4000, static_cast<std::uint8_t>('a' + chunk));
    } else {
      for (int i = 0; i < 3000; ++i) {
        input.push_back(static_cast<std::uint8_t>(rng.next_u32()));
      }
    }
  }
  EXPECT_EQ(roundtrip(input, 6), input);
  EXPECT_EQ(roundtrip(input, 1), input);
  EXPECT_EQ(roundtrip(input, 9), input);
}

TEST(DeflateTest, OverlappingMatchesRoundtrip) {
  // RLE-style data exercises matches whose distance < length.
  std::vector<std::uint8_t> input(10'000, 'x');
  EXPECT_EQ(roundtrip(input, 6), input);
  std::vector<std::uint8_t> abab;
  for (int i = 0; i < 5000; ++i) {
    abab.push_back('a');
    abab.push_back('b');
  }
  EXPECT_EQ(roundtrip(abab, 6), abab);
}

TEST(DeflateTest, HigherLevelNeverMuchWorse) {
  std::string s;
  for (int i = 0; i < 300; ++i) {
    s += "<p class=\"banner\">solutions for the enterprise</p>\n";
  }
  const auto input = bytes_of(s);
  const auto l1 = zlib_compress(input, DeflateOptions{1});
  const auto l9 = zlib_compress(input, DeflateOptions{9});
  EXPECT_LE(l9.size(), l1.size() + 16);
}

TEST(InflateTest, StreamingFeedByteAtATime) {
  const auto input = bytes_of(
      "Streaming decompression must produce output incrementally as "
      "compressed bytes arrive from the network. Streaming streaming.");
  const auto compressed = zlib_compress(input, DeflateOptions{6});
  Inflater inf;
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < compressed.size(); ++i) {
    const auto status = inf.feed(std::span(&compressed[i], 1), out);
    ASSERT_NE(status, Inflater::Status::kError) << inf.error();
  }
  EXPECT_EQ(inf.status(), Inflater::Status::kDone);
  EXPECT_EQ(out, input);
}

TEST(InflateTest, StreamingProducesOutputBeforeStreamEnd) {
  // Feed the first half of a compressed 40 KB document: a streaming inflater
  // must already yield a substantial prefix (this is what lets the paper's
  // client discover <img> tags in the first TCP segment).
  std::string html;
  for (int i = 0; i < 1000; ++i) {
    html += "<tr><td><img src=\"/img/i" + std::to_string(i % 40) +
            ".gif\"></td></tr>\n";
  }
  const auto input = bytes_of(html);
  const auto compressed = zlib_compress(input, DeflateOptions{6});
  Inflater inf;
  std::vector<std::uint8_t> out;
  inf.feed(std::span(compressed.data(), compressed.size() / 2), out);
  EXPECT_EQ(inf.status(), Inflater::Status::kInProgress);
  // The back half of repetitive HTML compresses better than the front, so
  // half the compressed bytes yield somewhat less than half the output — but
  // a streaming inflater must still have produced a substantial prefix.
  EXPECT_GT(out.size(), input.size() / 10);
  // Prefix property: what we have must match the original.
  EXPECT_TRUE(std::equal(out.begin(), out.end(), input.begin()));
}

TEST(InflateTest, RejectsCorruptHeader) {
  std::vector<std::uint8_t> garbage = {0x12, 0x34, 0x56};
  std::vector<std::uint8_t> out;
  Inflater inf;
  EXPECT_EQ(inf.feed(garbage, out), Inflater::Status::kError);
}

TEST(InflateTest, RejectsCorruptAdler) {
  const auto input = bytes_of("checksummed payload");
  auto compressed = zlib_compress(input, DeflateOptions{6});
  compressed.back() ^= 0xFF;
  InflateResult r = zlib_decompress(compressed, input.size());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("Adler"), std::string::npos);
}

TEST(InflateTest, RejectsTruncatedStream) {
  const auto input = bytes_of("this stream will be cut short");
  auto compressed = zlib_compress(input, DeflateOptions{6});
  compressed.resize(compressed.size() - 5);
  InflateResult r = zlib_decompress(compressed, input.size());
  EXPECT_FALSE(r.ok);
}

TEST(InflateTest, RejectsCorruptPayloadBits) {
  std::string s;
  for (int i = 0; i < 100; ++i) s += "abcdefgh" + std::to_string(i);
  const auto input = bytes_of(s);
  auto compressed = zlib_compress(input, DeflateOptions{6});
  // Flip bits in the middle of the deflate payload; either a decode error or
  // an Adler mismatch must result — never a silent wrong answer.
  compressed[compressed.size() / 2] ^= 0x5A;
  InflateResult r = zlib_decompress(compressed, input.size());
  EXPECT_FALSE(r.ok);
}

TEST(InflateTest, RawFormatSkipsZlibFraming) {
  const auto input = bytes_of("raw deflate body");
  const auto raw = deflate_compress(input, DeflateOptions{6});
  Inflater inf(Inflater::Format::kRaw);
  std::vector<std::uint8_t> out;
  EXPECT_EQ(inf.feed(raw, out), Inflater::Status::kDone);
  EXPECT_EQ(out, input);
}

TEST(InflateTest, OutputCapStopsExpansion) {
  // A megabyte of zeros deflates to about a kilobyte: a 1000x expansion.
  const std::vector<std::uint8_t> zeros(1 << 20, 0);
  const auto compressed = zlib_compress(zeros, DeflateOptions{6});
  ASSERT_LT(compressed.size(), 2000u);
  const InflateResult capped = zlib_decompress(compressed, 4096);
  EXPECT_FALSE(capped.ok);
  EXPECT_EQ(capped.error, kOutputCapError);
  EXPECT_TRUE(capped.data.empty());
  // The cap is inclusive: exactly the stream's size passes, one less fails.
  EXPECT_TRUE(zlib_decompress(compressed, zeros.size()).ok);
  EXPECT_EQ(zlib_decompress(compressed, zeros.size() - 1).error,
            kOutputCapError);
}

TEST(InflateTest, OutputCapCoversStoredBlocks) {
  const auto input = bytes_of("stored, not compressed");
  const auto stored = zlib_compress(input, DeflateOptions{0});
  EXPECT_TRUE(zlib_decompress(stored, input.size()).ok);
  EXPECT_EQ(zlib_decompress(stored, input.size() - 1).error, kOutputCapError);
}

TEST(InflateTest, StreamingOutputNeverPassesTheCap) {
  const std::vector<std::uint8_t> zeros(100000, 0);
  const auto compressed = zlib_compress(zeros, DeflateOptions{6});
  Inflater inf;
  inf.set_output_cap(777);
  std::vector<std::uint8_t> out;
  Inflater::Status status = Inflater::Status::kInProgress;
  for (std::uint8_t b : compressed) {
    status = inf.feed(std::span(&b, 1), out);
    ASSERT_LE(out.size(), 777u);
    if (status != Inflater::Status::kInProgress) break;
  }
  EXPECT_EQ(status, Inflater::Status::kError);
  EXPECT_EQ(inf.error(), kOutputCapError);
  EXPECT_EQ(out.size(), 777u);
}

// Robustness fuzz: arbitrary bytes fed to the inflater must never crash,
// hang, or claim success — only clean error/need-more outcomes.
class InflateFuzz : public ::testing::TestWithParam<int> {};

TEST_P(InflateFuzz, RandomGarbageNeverCrashes) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1);
  std::vector<std::uint8_t> junk(
      static_cast<std::size_t>(rng.uniform(1, 5000)));
  for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u32());
  Inflater inf;
  std::vector<std::uint8_t> out;
  const auto status = inf.feed(junk, out);
  EXPECT_NE(status, Inflater::Status::kDone);  // garbage is never a stream
}

TEST_P(InflateFuzz, MutatedValidStreamsFailCleanly) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503 + 9);
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "segment " + std::to_string(rng.uniform(0, 50)) + " ";
  }
  auto stream = zlib_compress(bytes_of(text));
  // Random byte mutations anywhere in the stream.
  const int mutations = static_cast<int>(rng.uniform(1, 6));
  for (int i = 0; i < mutations; ++i) {
    stream[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(stream.size()) - 1))] ^=
        static_cast<std::uint8_t>(1 + rng.uniform(0, 254));
  }
  Inflater inf;
  std::vector<std::uint8_t> out;
  const auto status = inf.feed(stream, out);
  // Either detected as corrupt, or (if mutations cancelled out /hit padding)
  // decoded to the exact original — never a silent wrong answer.
  if (status == Inflater::Status::kDone) {
    EXPECT_EQ(std::string(out.begin(), out.end()), text);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, InflateFuzz, ::testing::Range(0, 25));

TEST(DictionaryTest, RoundtripWithPresetDictionary) {
  const auto dict = html_preset_dictionary();
  const auto input = bytes_of(
      "<table border=\"0\" cellspacing=\"0\" cellpadding=\"0\" "
      "width=\"600\"><tr><td align=\"left\" valign=\"top\">hello</td></tr>");
  const auto compressed = zlib_compress_with_dictionary(input, dict);
  Inflater inf;
  inf.set_dictionary(dict);
  std::vector<std::uint8_t> out;
  ASSERT_EQ(inf.feed(compressed, out), Inflater::Status::kDone)
      << inf.error();
  EXPECT_EQ(out, input);
}

TEST(DictionaryTest, DictionaryShrinksSmallHtml) {
  // The paper's future-work idea: HTML-optimized dictionaries pay off most
  // on small documents, where deflate has no history to draw on.
  const auto dict = html_preset_dictionary();
  const auto input = bytes_of(
      "<html><head><title>t</title></head><body bgcolor=\"#FFFFFF\">"
      "<table border=\"0\" cellspacing=\"0\" cellpadding=\"0\" "
      "width=\"600\"><tr><td align=\"left\" valign=\"top\">"
      "<font face=\"Arial, Helvetica\" size=\"2\">x</font></td></tr>"
      "</table></body></html>");
  const auto plain = zlib_compress(input);
  const auto with_dict = zlib_compress_with_dictionary(input, dict);
  // The dictionary stream carries 4 extra DICTID bytes yet still wins big.
  EXPECT_LT(with_dict.size() + 20, plain.size());
}

TEST(DictionaryTest, MissingDictionaryIsAnError) {
  const auto dict = html_preset_dictionary();
  const auto input = bytes_of("<p>needs the dictionary</p>");
  const auto compressed = zlib_compress_with_dictionary(input, dict);
  Inflater inf;  // no set_dictionary
  std::vector<std::uint8_t> out;
  EXPECT_EQ(inf.feed(compressed, out), Inflater::Status::kError);
  EXPECT_NE(inf.error().find("dictionary"), std::string::npos);
}

TEST(DictionaryTest, WrongDictionaryIdRejected) {
  const auto dict = html_preset_dictionary();
  const auto input = bytes_of("<p>dict</p>");
  const auto compressed = zlib_compress_with_dictionary(input, dict);
  Inflater inf;
  const auto wrong = bytes_of("a completely different dictionary");
  inf.set_dictionary(wrong);
  std::vector<std::uint8_t> out;
  EXPECT_EQ(inf.feed(compressed, out), Inflater::Status::kError);
}

TEST(DictionaryTest, EmptyInputWithDictionary) {
  const auto dict = html_preset_dictionary();
  const auto compressed = zlib_compress_with_dictionary({}, dict);
  Inflater inf;
  inf.set_dictionary(dict);
  std::vector<std::uint8_t> out;
  ASSERT_EQ(inf.feed(compressed, out), Inflater::Status::kDone)
      << inf.error();
  EXPECT_TRUE(out.empty());
}

TEST(DictionaryTest, LargeDictionaryTruncatedToWindow) {
  std::vector<std::uint8_t> big_dict(50'000);
  sim::Rng rng(4);
  for (auto& b : big_dict) {
    b = static_cast<std::uint8_t>('a' + rng.uniform(0, 3));
  }
  const auto input = std::vector<std::uint8_t>(big_dict.end() - 500,
                                               big_dict.end());
  const auto compressed = zlib_compress_with_dictionary(input, big_dict);
  Inflater inf;
  inf.set_dictionary(big_dict);
  std::vector<std::uint8_t> out;
  ASSERT_EQ(inf.feed(compressed, out), Inflater::Status::kDone)
      << inf.error();
  EXPECT_EQ(out, input);
}

// Property-style sweep: random structured inputs roundtrip at every level.
class DeflateRoundtripProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DeflateRoundtripProperty, Roundtrips) {
  const auto [level, seed] = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  std::vector<std::uint8_t> input;
  const int sections = static_cast<int>(rng.uniform(1, 12));
  for (int s = 0; s < sections; ++s) {
    switch (rng.uniform(0, 3)) {
      case 0: {  // repeated run
        const auto byte = static_cast<std::uint8_t>(rng.uniform(0, 255));
        input.insert(input.end(), rng.uniform(1, 3000), byte);
        break;
      }
      case 1: {  // random bytes
        const auto n = rng.uniform(1, 2000);
        for (int i = 0; i < n; ++i) {
          input.push_back(static_cast<std::uint8_t>(rng.next_u32()));
        }
        break;
      }
      case 2: {  // text-like
        const auto n = rng.uniform(1, 400);
        for (int i = 0; i < n; ++i) {
          input.push_back(static_cast<std::uint8_t>('a' + rng.uniform(0, 25)));
        }
        break;
      }
      default: {  // short period pattern (overlapping matches)
        const auto period = rng.uniform(1, 7);
        const auto n = rng.uniform(10, 2000);
        for (int i = 0; i < n; ++i) {
          input.push_back(static_cast<std::uint8_t>('0' + (i % period)));
        }
        break;
      }
    }
  }
  const auto compressed = zlib_compress(input, DeflateOptions{level});
  InflateResult r = zlib_decompress(compressed, input.size());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.data, input);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeflateRoundtripProperty,
    ::testing::Combine(::testing::Values(0, 1, 4, 6, 9),
                       ::testing::Range(0, 12)));

}  // namespace
}  // namespace hsim::deflate
