// Seeded-mutation fuzz tests for the loaders that take bytes from outside
// the simulator: the .netem profile parser and both packet-trace readers.
//
// Each loader starts from a small valid input and sees three mutation
// families: byte flips, truncation at every offset, and spliced or
// duplicated lines (text) or records (binary, including a rewritten record
// count). On every mutant a loader must either parse cleanly or return
// false with a non-empty error, and must never crash; CI runs this suite
// under ASan+UBSan, which turns an over-read into a failure. The trace
// readers must also never reserve more records than the input bytes could
// hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "net/trace_io.hpp"
#include "netem/profile.hpp"
#include "sim/random.hpp"

namespace hsim {
namespace {

constexpr int kFlipMutants = 600;
constexpr int kSpliceMutants = 300;

/// Bytes a flip writes: parser-significant ones, then anything at all.
constexpr char kInteresting[] = {'\n', ' ', '#', '-', '.', 'e', '0',
                                 '9',  ':', '>', '=', '\0', '\xff'};

std::string flip_bytes(std::string s, sim::Rng& rng) {
  if (s.empty()) return s;
  const int flips = static_cast<int>(rng.uniform(1, 3));
  for (int k = 0; k < flips; ++k) {
    const auto at = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(s.size()) - 1));
    s[at] = rng.chance(0.5)
                ? kInteresting[rng.uniform(0, sizeof kInteresting - 1)]
                : static_cast<char>(rng.uniform(0, 255));
  }
  return s;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

/// Duplicates a line, moves one elsewhere, or glues the head of one line
/// onto the tail of another.
std::string splice_lines(const std::string& text, sim::Rng& rng) {
  std::vector<std::string> lines = split_lines(text);
  const auto pick = [&] {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(lines.size()) - 1));
  };
  const std::size_t a = pick();
  const std::size_t b = pick();
  switch (rng.uniform(0, 2)) {
    case 0:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(b), lines[a]);
      break;
    case 1: {
      std::string moved = lines[a];
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(a));
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(b, lines.size())),
                   std::move(moved));
      break;
    }
    default: {
      const auto cut_a = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(lines[a].size())));
      const auto cut_b = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(lines[b].size())));
      lines[a] = lines[a].substr(0, cut_a) + lines[b].substr(cut_b);
      break;
    }
  }
  std::string out;
  for (const std::string& line : lines) out += line + '\n';
  return out;
}

/// Runs `check` on every mutant of `valid`: truncations at each offset,
/// seeded byte flips and seeded line splices.
template <typename Check>
void for_each_text_mutant(const std::string& valid, std::uint64_t seed,
                          Check&& check) {
  for (std::size_t n = 0; n <= valid.size(); ++n) {
    check(valid.substr(0, n), "truncated at " + std::to_string(n));
  }
  sim::Rng rng(seed);
  for (int i = 0; i < kFlipMutants; ++i) {
    check(flip_bytes(valid, rng), "flip mutant " + std::to_string(i));
  }
  for (int i = 0; i < kSpliceMutants; ++i) {
    check(splice_lines(valid, rng), "splice mutant " + std::to_string(i));
  }
}

// ---- netem::parse_profile ---------------------------------------------------

std::string valid_netem_text() {
  netem::PathProfile p;
  p.name = "fuzz";
  p.down = netem::Profile({{0, 2'000'000, sim::milliseconds(40)},
                           {sim::milliseconds(500), 400'000, 0},
                           {sim::seconds(1), 8'000'000, sim::milliseconds(5)}},
                          sim::seconds(2));
  p.up = netem::Profile({{0, 500'000, sim::milliseconds(60)},
                         {sim::milliseconds(700), 250'000, 0}},
                        sim::seconds(2));
  p.radio = {true, sim::milliseconds(250), sim::seconds(5)};
  p.queue_limit_packets = 64;
  return netem::profile_to_text(p);
}

TEST(LoaderFuzz, NetemProfileParserSurvivesMutants) {
  const std::string valid = valid_netem_text();
  netem::PathProfile parsed;
  std::string error;
  ASSERT_TRUE(netem::parse_profile(valid, &parsed, &error)) << error;

  std::size_t accepted = 0, rejected = 0;
  for_each_text_mutant(valid, 0x5EED01, [&](const std::string& text,
                                            const std::string& label) {
    netem::PathProfile out;
    std::string err;
    if (netem::parse_profile(text, &out, &err)) {
      ++accepted;
      EXPECT_FALSE(out.down.segments().empty()) << label;
      EXPECT_FALSE(out.up.segments().empty()) << label;
    } else {
      ++rejected;
      EXPECT_FALSE(err.empty()) << label;
    }
  });
  // Both verdicts occur, so the mutants reach past the first line.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---- net::trace_from_text / trace_from_binary -----------------------------

std::vector<net::TraceRecord> sample_records(bool hops) {
  std::vector<net::TraceRecord> records;
  for (std::uint32_t i = 0; i < 4; ++i) {
    net::TraceRecord r;
    r.time = sim::milliseconds(3) * i + 17;
    r.src = i % 2 == 0 ? 1000 : 1;
    r.dst = i % 2 == 0 ? 1 : 1000;
    r.src_port = i % 2 == 0 ? 40000 : 80;
    r.dst_port = i % 2 == 0 ? 80 : 40000;
    r.flags = i == 0 ? net::flag::kSyn : net::flag::kAck;
    r.seq = 1000 * i;
    r.ack = 7 * i;
    r.payload_bytes = i == 0 ? 0 : 1460;
    if (hops) {
      r.hop_router = static_cast<std::int32_t>(i % 3) - 1;
      r.hop_queue_depth = i;
    }
    records.push_back(r);
  }
  return records;
}

std::size_t line_count(const std::string& text) {
  return static_cast<std::size_t>(
             std::count(text.begin(), text.end(), '\n')) +
         1;
}

TEST(LoaderFuzz, TraceTextReaderSurvivesMutants) {
  for (const bool hops : {false, true}) {
    SCOPED_TRACE(hops ? "v2" : "v1");
    const std::string valid = net::trace_to_text(sample_records(hops));
    std::vector<net::TraceRecord> out;
    std::string error;
    ASSERT_TRUE(net::trace_from_text(valid, &out, &error)) << error;
    ASSERT_EQ(out.size(), 4u);

    for_each_text_mutant(valid, hops ? 0x7E47 : 0x7E41,
                         [&](const std::string& text,
                             const std::string& label) {
      std::vector<net::TraceRecord> records;
      std::string err;
      if (!net::trace_from_text(text, &records, &err)) {
        EXPECT_FALSE(err.empty()) << label;
      }
      // push_back growth: at most twice one record per line.
      EXPECT_LE(records.capacity(), 2 * line_count(text)) << label;
    });
  }
}

constexpr std::size_t kHeaderBytes = net::kTraceBinaryMagic.size() + 4;
constexpr std::size_t kMinRecordBytes = 34;

/// The most records `data` could hold after its header.
std::size_t binary_capacity_bound(const std::vector<std::uint8_t>& data) {
  return data.size() < kHeaderBytes
             ? 0
             : (data.size() - kHeaderBytes) / kMinRecordBytes;
}

void check_binary(const std::vector<std::uint8_t>& data,
                  const std::string& label) {
  std::vector<net::TraceRecord> records;
  std::string err;
  if (!net::trace_from_binary(data, &records, &err)) {
    EXPECT_FALSE(err.empty()) << label;
  }
  EXPECT_LE(records.capacity(), binary_capacity_bound(data)) << label;
}

TEST(LoaderFuzz, TraceBinaryReaderSurvivesMutants) {
  for (const bool hops : {false, true}) {
    SCOPED_TRACE(hops ? "v2" : "v1");
    const std::vector<std::uint8_t> valid =
        net::trace_to_binary(sample_records(hops));
    const std::size_t record_bytes = (valid.size() - kHeaderBytes) / 4;
    {
      std::vector<net::TraceRecord> out;
      std::string error;
      ASSERT_TRUE(net::trace_from_binary(valid, &out, &error)) << error;
      ASSERT_EQ(out.size(), 4u);
    }

    for (std::size_t n = 0; n <= valid.size(); ++n) {
      const auto end = valid.begin() + static_cast<std::ptrdiff_t>(n);
      check_binary({valid.begin(), end}, "truncated at " + std::to_string(n));
    }

    sim::Rng rng(hops ? 0xB1C2 : 0xB1C1);
    for (int i = 0; i < kFlipMutants; ++i) {
      std::vector<std::uint8_t> data = valid;
      const int flips = static_cast<int>(rng.uniform(1, 3));
      for (int k = 0; k < flips; ++k) {
        const auto at = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(data.size()) - 1));
        data[at] = static_cast<std::uint8_t>(rng.uniform(0, 255));
      }
      check_binary(data, "flip mutant " + std::to_string(i));
    }

    // Records duplicated or spliced in at any byte offset, with the count
    // left alone, bumped to match, or rewritten to an arbitrary value.
    for (int i = 0; i < kSpliceMutants; ++i) {
      std::vector<std::uint8_t> data = valid;
      const auto rec = static_cast<std::size_t>(rng.uniform(0, 3));
      const auto from = valid.begin() + static_cast<std::ptrdiff_t>(
                                            kHeaderBytes + rec * record_bytes);
      const auto len = static_cast<std::ptrdiff_t>(
          rng.chance(0.5) ? record_bytes
                          : static_cast<std::size_t>(
                                rng.uniform(1, static_cast<std::int64_t>(
                                                   record_bytes))));
      const bool aligned = rng.chance(0.5);
      const auto at =
          aligned ? kHeaderBytes +
                        static_cast<std::size_t>(rng.uniform(0, 4)) *
                            record_bytes
                  : static_cast<std::size_t>(rng.uniform(
                        0, static_cast<std::int64_t>(data.size())));
      data.insert(data.begin() + static_cast<std::ptrdiff_t>(at), from,
                  from + len);
      std::uint32_t count = 4;
      switch (rng.uniform(0, 2)) {
        case 0: break;
        case 1: count = 5; break;
        default:
          count = static_cast<std::uint32_t>(rng.uniform(0, 0xFFFFFFFFll));
          break;
      }
      for (int b = 0; b < 4; ++b) {
        data[net::kTraceBinaryMagic.size() + static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(count >> (8 * b));
      }
      check_binary(data, "splice mutant " + std::to_string(i));
    }
  }
}

TEST(LoaderFuzz, BinaryMagicWithoutRecordCountIsTruncated) {
  // Either magic followed by fewer than the four count bytes: the reader
  // must report truncation before it reads the count.
  for (const std::string_view magic :
       {net::kTraceBinaryMagic, net::kTraceBinaryMagicV2}) {
    for (std::size_t extra = 0; extra < 4; ++extra) {
      std::vector<std::uint8_t> data(magic.begin(), magic.end());
      data.resize(data.size() + extra, 0);
      std::vector<net::TraceRecord> records;
      std::string error;
      EXPECT_FALSE(net::trace_from_binary(data, &records, &error))
          << magic.substr(0, 6) << " + " << extra;
      EXPECT_EQ(error, "truncated trace file")
          << magic.substr(0, 6) << " + " << extra;
    }
  }
}

}  // namespace
}  // namespace hsim
