#include "deflate/deflate.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "deflate/bitio.hpp"
#include "deflate/checksum.hpp"
#include "deflate/huffman.hpp"
#include "deflate/tables.hpp"

namespace hsim::deflate {

namespace {

// ---------------------------------------------------------------------------
// LZ77 matcher
// ---------------------------------------------------------------------------

struct Token {
  // literal when dist == 0; match of (length, dist) otherwise
  std::uint16_t length_or_literal;
  std::uint16_t dist;
};

struct MatcherParams {
  unsigned max_chain;   // hash chain positions examined per match attempt
  unsigned good_match;  // stop searching when a match this long is found
  bool lazy;            // defer one byte looking for a longer match
};

MatcherParams params_for_level(int level) {
  if (level <= 1) return {8, 8, false};
  if (level <= 3) return {32, 16, false};
  if (level <= 6) return {128, 64, true};
  return {1024, 258, true};
}

class Lz77 {
 public:
  Lz77(std::span<const std::uint8_t> input, MatcherParams params)
      : in_(input), params_(params) {
    head_.assign(kHashSize, -1);
    prev_.assign(kWindowSize, -1);
  }

  /// Tokenizes the input, emitting tokens only from `emit_from` onward;
  /// earlier bytes (a preset dictionary) are indexed for matching but not
  /// represented in the output token stream.
  std::vector<Token> tokenize(std::size_t emit_from = 0) {
    std::vector<Token> tokens;
    tokens.reserve(in_.size() / 3 + 16);
    std::size_t pos = 0;
    while (pos < emit_from && pos < in_.size()) {
      insert_hash(pos);
      ++pos;
    }
    // Pending literal for lazy matching.
    bool have_prev_match = false;
    unsigned prev_len = 0, prev_dist = 0;

    while (pos < in_.size()) {
      unsigned len = 0, dist = 0;
      if (pos + kMinMatch <= in_.size()) {
        find_match(pos, len, dist);
      }
      if (params_.lazy && have_prev_match) {
        // Previous position had a match; emit it unless this one is longer.
        if (len > prev_len) {
          // Previous byte becomes a literal; current match pends.
          tokens.push_back({in_[pos - 1], 0});
          prev_len = len;
          prev_dist = dist;
          insert_hash(pos);
          ++pos;
          continue;
        }
        // Emit the previous match (it started at pos-1).
        tokens.push_back({static_cast<std::uint16_t>(prev_len),
                          static_cast<std::uint16_t>(prev_dist)});
        // Insert hash entries for the matched span (pos-1 already inserted).
        const std::size_t match_end = pos - 1 + prev_len;
        while (pos < match_end && pos < in_.size()) {
          insert_hash(pos);
          ++pos;
        }
        have_prev_match = false;
        continue;
      }
      if (len >= kMinMatch) {
        if (params_.lazy && len < params_.good_match &&
            pos + 1 + kMinMatch <= in_.size()) {
          // Defer: remember this match, try the next position.
          prev_len = len;
          prev_dist = dist;
          have_prev_match = true;
          insert_hash(pos);
          ++pos;
          continue;
        }
        tokens.push_back({static_cast<std::uint16_t>(len),
                          static_cast<std::uint16_t>(dist)});
        const std::size_t match_end = pos + len;
        while (pos < match_end && pos < in_.size()) {
          insert_hash(pos);
          ++pos;
        }
        continue;
      }
      tokens.push_back({in_[pos], 0});
      insert_hash(pos);
      ++pos;
    }
    if (have_prev_match) {
      tokens.push_back({static_cast<std::uint16_t>(prev_len),
                        static_cast<std::uint16_t>(prev_dist)});
      // Trailing literals inside the final match were already consumed by the
      // position loop above (pos advanced past them before loop exit).
    }
    return tokens;
  }

 private:
  static constexpr std::size_t kHashSize = 1 << 15;

  unsigned hash_at(std::size_t pos) const {
    return ((in_[pos] << 10) ^ (in_[pos + 1] << 5) ^ in_[pos + 2]) &
           (kHashSize - 1);
  }

  void insert_hash(std::size_t pos) {
    if (pos + kMinMatch > in_.size()) return;
    const unsigned h = hash_at(pos);
    prev_[pos & (kWindowSize - 1)] = head_[h];
    head_[h] = static_cast<std::int64_t>(pos);
  }

  void find_match(std::size_t pos, unsigned& best_len,
                  unsigned& best_dist) const {
    best_len = 0;
    best_dist = 0;
    const unsigned h = hash_at(pos);
    std::int64_t cand = head_[h];
    const std::size_t max_len =
        std::min<std::size_t>(kMaxMatch, in_.size() - pos);
    unsigned chain = params_.max_chain;
    const std::size_t min_pos =
        pos >= kWindowSize ? pos - kWindowSize + 1 : 0;
    while (cand >= 0 && static_cast<std::size_t>(cand) >= min_pos &&
           chain-- > 0) {
      const std::size_t c = static_cast<std::size_t>(cand);
      if (c < pos) {
        // Quick reject on the byte just past the current best.
        if (best_len == 0 ||
            (c + best_len < in_.size() && pos + best_len < in_.size() &&
             in_[c + best_len] == in_[pos + best_len])) {
          std::size_t l = 0;
          while (l < max_len && in_[c + l] == in_[pos + l]) ++l;
          if (l > best_len) {
            best_len = static_cast<unsigned>(l);
            best_dist = static_cast<unsigned>(pos - c);
            if (best_len >= params_.good_match || best_len == max_len) break;
          }
        }
      }
      cand = prev_[c & (kWindowSize - 1)];
    }
    if (best_len < kMinMatch) {
      best_len = 0;
      best_dist = 0;
    }
  }

  std::span<const std::uint8_t> in_;
  MatcherParams params_;
  std::vector<std::int64_t> head_;
  std::vector<std::int64_t> prev_;
};

// ---------------------------------------------------------------------------
// Block emission
// ---------------------------------------------------------------------------

void count_frequencies(std::span<const Token> tokens,
                       std::array<std::uint32_t, kNumLitLenSymbols>& lit_freq,
                       std::array<std::uint32_t, kNumDistSymbols>& dist_freq) {
  lit_freq.fill(0);
  dist_freq.fill(0);
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      ++lit_freq[t.length_or_literal];
    } else {
      ++lit_freq[257 + length_to_code(t.length_or_literal)];
      ++dist_freq[distance_to_code(t.dist)];
    }
  }
  ++lit_freq[kEndOfBlock];
}

std::uint64_t token_cost_bits(
    std::span<const Token> tokens,
    std::span<const std::uint8_t> litlen_lengths,
    std::span<const std::uint8_t> dist_lengths) {
  std::uint64_t bits = 0;
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      bits += litlen_lengths[t.length_or_literal];
    } else {
      const unsigned lcode = length_to_code(t.length_or_literal);
      bits += litlen_lengths[257 + lcode] + kLengthCodes[lcode].extra_bits;
      const unsigned dcode = distance_to_code(t.dist);
      bits += dist_lengths[dcode] + kDistCodes[dcode].extra_bits;
    }
  }
  bits += litlen_lengths[kEndOfBlock];
  return bits;
}

/// RLE-encodes the combined litlen+dist code length sequence per RFC 1951
/// §3.2.7. Each element is (symbol 0..18, extra_value, extra_bits).
struct ClSymbol {
  std::uint8_t symbol;
  std::uint8_t extra;
  std::uint8_t extra_bits;
};

std::vector<ClSymbol> rle_code_lengths(std::span<const std::uint8_t> lengths) {
  std::vector<ClSymbol> out;
  std::size_t i = 0;
  while (i < lengths.size()) {
    const std::uint8_t v = lengths[i];
    std::size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == v) ++run;
    if (v == 0) {
      std::size_t left = run;
      while (left >= 11) {
        const std::size_t n = std::min<std::size_t>(left, 138);
        out.push_back({18, static_cast<std::uint8_t>(n - 11), 7});
        left -= n;
      }
      while (left >= 3) {
        const std::size_t n = std::min<std::size_t>(left, 10);
        out.push_back({17, static_cast<std::uint8_t>(n - 3), 3});
        left -= n;
      }
      while (left-- > 0) out.push_back({0, 0, 0});
    } else {
      out.push_back({v, 0, 0});
      std::size_t left = run - 1;
      while (left >= 3) {
        const std::size_t n = std::min<std::size_t>(left, 6);
        out.push_back({16, static_cast<std::uint8_t>(n - 3), 2});
        left -= n;
      }
      while (left-- > 0) out.push_back({v, 0, 0});
    }
    i += run;
  }
  return out;
}

void write_tokens(BitWriter& out, std::span<const Token> tokens,
                  const HuffmanEncoder& lit, const HuffmanEncoder& dist) {
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      lit.write_symbol(out, t.length_or_literal);
    } else {
      const unsigned lcode = length_to_code(t.length_or_literal);
      lit.write_symbol(out, 257 + lcode);
      if (kLengthCodes[lcode].extra_bits > 0) {
        out.write_bits(t.length_or_literal - kLengthCodes[lcode].base,
                       kLengthCodes[lcode].extra_bits);
      }
      const unsigned dcode = distance_to_code(t.dist);
      dist.write_symbol(out, dcode);
      if (kDistCodes[dcode].extra_bits > 0) {
        out.write_bits(t.dist - kDistCodes[dcode].base,
                       kDistCodes[dcode].extra_bits);
      }
    }
  }
  lit.write_symbol(out, kEndOfBlock);
}

/// Emits one block choosing the cheapest representation.
void emit_block(BitWriter& out, std::span<const std::uint8_t> raw,
                std::span<const Token> tokens, bool final_block,
                bool force_stored) {
  // --- candidate 1: dynamic Huffman ---
  std::array<std::uint32_t, kNumLitLenSymbols> lit_freq;
  std::array<std::uint32_t, kNumDistSymbols> dist_freq;
  count_frequencies(tokens, lit_freq, dist_freq);

  std::vector<std::uint8_t> dyn_lit =
      build_code_lengths(lit_freq, 15);
  std::vector<std::uint8_t> dyn_dist = build_code_lengths(dist_freq, 15);
  // DEFLATE requires at least one distance code to be describable.
  if (std::all_of(dyn_dist.begin(), dyn_dist.end(),
                  [](std::uint8_t l) { return l == 0; })) {
    dyn_dist[0] = 1;
  }

  unsigned hlit = kNumLitLenSymbols;
  while (hlit > 257 && dyn_lit[hlit - 1] == 0) --hlit;
  unsigned hdist = kNumDistSymbols;
  while (hdist > 1 && dyn_dist[hdist - 1] == 0) --hdist;

  std::vector<std::uint8_t> combined(dyn_lit.begin(), dyn_lit.begin() + hlit);
  combined.insert(combined.end(), dyn_dist.begin(), dyn_dist.begin() + hdist);
  const std::vector<ClSymbol> cl_seq = rle_code_lengths(combined);

  std::array<std::uint32_t, 19> cl_freq{};
  for (const ClSymbol& s : cl_seq) ++cl_freq[s.symbol];
  std::vector<std::uint8_t> cl_lengths = build_code_lengths(cl_freq, 7);

  unsigned hclen = 19;
  while (hclen > 4 && cl_lengths[kCodeLengthOrder[hclen - 1]] == 0) --hclen;

  std::uint64_t dyn_bits = 5 + 5 + 4 + hclen * 3;
  for (const ClSymbol& s : cl_seq) {
    dyn_bits += cl_lengths[s.symbol] + s.extra_bits;
  }
  dyn_bits += token_cost_bits(tokens, dyn_lit, dyn_dist);

  // --- candidate 2: fixed Huffman ---
  const auto fixed_lit = fixed_litlen_lengths();
  const auto fixed_dist = fixed_dist_lengths();
  const std::uint64_t fixed_bits = token_cost_bits(
      tokens, std::span(fixed_lit.data(), fixed_lit.size()),
      std::span(fixed_dist.data(), fixed_dist.size()));

  // --- candidate 3: stored (cost depends on current bit alignment; use the
  // worst case of 7 alignment bits plus 32 bits of lengths). Only viable when
  // the caller could supply the raw bytes (blocks > 65535 raw bytes cannot be
  // stored and pass an empty span).
  const bool stored_viable = !raw.empty() || tokens.empty();
  const std::uint64_t stored_bits = 7 + 32 + raw.size() * 8;

  out.write_bits(final_block ? 1 : 0, 1);
  if (force_stored ||
      (stored_viable && stored_bits < dyn_bits + 3 &&
       stored_bits < fixed_bits + 3)) {
    out.write_bits(0b00, 2);  // BTYPE=00 stored
    out.align_to_byte();
    const std::uint16_t len = static_cast<std::uint16_t>(raw.size());
    out.write_bits(len, 16);
    out.write_bits(static_cast<std::uint16_t>(~len), 16);
    out.write_bytes(raw);
    return;
  }
  if (fixed_bits <= dyn_bits) {
    out.write_bits(0b01, 2);  // BTYPE=01 fixed
    HuffmanEncoder lit(std::span(fixed_lit.data(), fixed_lit.size()));
    HuffmanEncoder dist(std::span(fixed_dist.data(), fixed_dist.size()));
    write_tokens(out, tokens, lit, dist);
    return;
  }
  out.write_bits(0b10, 2);  // BTYPE=10 dynamic
  out.write_bits(hlit - 257, 5);
  out.write_bits(hdist - 1, 5);
  out.write_bits(hclen - 4, 4);
  HuffmanEncoder cl_enc(cl_lengths);
  for (unsigned i = 0; i < hclen; ++i) {
    out.write_bits(cl_lengths[kCodeLengthOrder[i]], 3);
  }
  for (const ClSymbol& s : cl_seq) {
    cl_enc.write_symbol(out, s.symbol);
    if (s.extra_bits > 0) out.write_bits(s.extra, s.extra_bits);
  }
  HuffmanEncoder lit(dyn_lit);
  HuffmanEncoder dist(dyn_dist);
  write_tokens(out, tokens, lit, dist);
}

}  // namespace

namespace {
/// Deflates `full[emit_from..]`, with `full[0..emit_from)` acting as a
/// preset dictionary (indexed for back-references, not emitted).
std::vector<std::uint8_t> deflate_body(std::span<const std::uint8_t> full,
                                       std::size_t emit_from,
                                       DeflateOptions options) {
  BitWriter out;
  Lz77 matcher(full, params_for_level(std::max(options.level, 1)));
  const std::vector<Token> tokens = matcher.tokenize(emit_from);

  constexpr std::size_t kTokensPerBlock = 65536;
  std::size_t t = 0;
  std::size_t raw_pos = emit_from;
  if (tokens.empty()) {
    emit_block(out, {}, {}, /*final_block=*/true, /*force_stored=*/true);
    return out.take();
  }
  while (t < tokens.size()) {
    const std::size_t count =
        std::min<std::size_t>(kTokensPerBlock, tokens.size() - t);
    std::size_t raw_len = 0;
    for (std::size_t i = t; i < t + count; ++i) {
      raw_len += tokens[i].dist == 0 ? 1 : tokens[i].length_or_literal;
    }
    const bool final_block = (t + count == tokens.size());
    const bool storable = raw_len <= 65535;
    emit_block(out, full.subspan(raw_pos, storable ? raw_len : 0),
               std::span(tokens).subspan(t, count), final_block,
               /*force_stored=*/false);
    t += count;
    raw_pos += raw_len;
    if (final_block) break;
  }
  return out.take();
}
}  // namespace

std::vector<std::uint8_t> deflate_compress(std::span<const std::uint8_t> input,
                                           DeflateOptions options) {
  BitWriter out;
  if (input.empty()) {
    // A single empty stored block.
    out.write_bits(1, 1);
    out.write_bits(0b00, 2);
    out.align_to_byte();
    out.write_bits(0, 16);
    out.write_bits(0xFFFF, 16);
    return out.take();
  }

  if (options.level <= 0) {
    // Stored blocks only, 65535-byte chunks.
    std::size_t pos = 0;
    while (pos < input.size()) {
      const std::size_t n = std::min<std::size_t>(65535, input.size() - pos);
      const bool final_block = pos + n == input.size();
      emit_block(out, input.subspan(pos, n), {}, final_block,
                 /*force_stored=*/true);
      pos += n;
    }
    return out.take();
  }

  // Tokenize the whole input (the matcher window handles distances), then
  // emit in blocks of bounded token count so Huffman codes stay adaptive.
  return deflate_body(input, 0, options);
}

std::vector<std::uint8_t> zlib_compress(std::span<const std::uint8_t> input,
                                        DeflateOptions options) {
  std::vector<std::uint8_t> out;
  // CMF: CM=8 (deflate), CINFO=7 (32K window). FLG: check bits, no dict,
  // FLEVEL=2 (default).
  const std::uint8_t cmf = 0x78;
  std::uint8_t flg = 2 << 6;
  const unsigned rem = (cmf * 256 + flg) % 31;
  if (rem != 0) flg += static_cast<std::uint8_t>(31 - rem);
  out.push_back(cmf);
  out.push_back(flg);
  std::vector<std::uint8_t> body = deflate_compress(input, options);
  out.insert(out.end(), body.begin(), body.end());
  const std::uint32_t adler = adler32(input);
  out.push_back(static_cast<std::uint8_t>(adler >> 24));
  out.push_back(static_cast<std::uint8_t>(adler >> 16));
  out.push_back(static_cast<std::uint8_t>(adler >> 8));
  out.push_back(static_cast<std::uint8_t>(adler));
  return out;
}

std::vector<std::uint8_t> zlib_compress(std::string_view text,
                                        DeflateOptions options) {
  return zlib_compress(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size()),
      options);
}

std::vector<std::uint8_t> zlib_compress_with_dictionary(
    std::span<const std::uint8_t> input,
    std::span<const std::uint8_t> dictionary, DeflateOptions options) {
  std::vector<std::uint8_t> out;
  const std::uint8_t cmf = 0x78;
  std::uint8_t flg = (2 << 6) | 0x20;  // FLEVEL=2, FDICT set
  const unsigned rem = (cmf * 256 + flg) % 31;
  if (rem != 0) {
    flg = static_cast<std::uint8_t>(flg + (31 - rem));
  }
  out.push_back(cmf);
  out.push_back(flg);
  const std::uint32_t dictid = adler32(dictionary);
  out.push_back(static_cast<std::uint8_t>(dictid >> 24));
  out.push_back(static_cast<std::uint8_t>(dictid >> 16));
  out.push_back(static_cast<std::uint8_t>(dictid >> 8));
  out.push_back(static_cast<std::uint8_t>(dictid));

  // Concatenate dictionary + input; only input tokens are emitted, but
  // matches may reach back into the dictionary (bounded by the 32 KB window).
  std::vector<std::uint8_t> full;
  const std::size_t dict_keep =
      std::min<std::size_t>(dictionary.size(), kWindowSize);
  full.reserve(dict_keep + input.size());
  full.insert(full.end(), dictionary.end() - dict_keep, dictionary.end());
  full.insert(full.end(), input.begin(), input.end());
  const auto body = deflate_body(full, dict_keep, options);
  out.insert(out.end(), body.begin(), body.end());

  const std::uint32_t adler = adler32(input);
  out.push_back(static_cast<std::uint8_t>(adler >> 24));
  out.push_back(static_cast<std::uint8_t>(adler >> 16));
  out.push_back(static_cast<std::uint8_t>(adler >> 8));
  out.push_back(static_cast<std::uint8_t>(adler));
  return out;
}

std::vector<std::uint8_t> html_preset_dictionary() {
  // Frequent 1997 markup phrases, most-common last (DEFLATE prefers short
  // distances, which point at the *end* of the dictionary).
  static const char kDict[] =
      "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 3.2//EN\">"
      "{ color: white; background: #FC0; font: bold oblique sans-serif; "
      "padding: 0.2em 1em; margin: 0; text-align: center }"
      "</option></select></form></style></script></title></head></body>"
      "</html>\n<meta http-equiv=\"Content-Type\" content=\"text/html\">"
      "<input type=\"text\" name=\"\" value=\"\"><br><p><hr><center>"
      "</center></b></i></u></em></strong><ul><li></li></ul><h1></h1>"
      "<table border=\"0\" cellspacing=\"0\" cellpadding=\"0\" width=\"600\">"
      "</table><tr><td align=\"left\" valign=\"top\" bgcolor=\"#FFFFFF\">"
      "</td></tr>\n<font face=\"Arial, Helvetica\" size=\"2\" "
      "color=\"#000000\"></font><a href=\"http://www.\"><img src=\"/images/"
      ".gif\" width=\"\" height=\"\" border=\"0\" alt=\"\"></a>";
  const auto* begin = reinterpret_cast<const std::uint8_t*>(kDict);
  return std::vector<std::uint8_t>(begin, begin + sizeof(kDict) - 1);
}

}  // namespace hsim::deflate
