#include "deflate/huffman.hpp"

#include <algorithm>
#include <cassert>

namespace hsim::deflate {

std::vector<std::uint8_t> build_code_lengths(
    std::span<const std::uint32_t> freqs, unsigned max_bits) {
  std::vector<std::uint8_t> lengths(freqs.size(), 0);

  struct Leaf {
    std::uint64_t freq;
    std::uint16_t symbol;
  };
  std::vector<Leaf> leaves;
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    if (freqs[i] > 0) {
      leaves.push_back({freqs[i], static_cast<std::uint16_t>(i)});
    }
  }
  if (leaves.empty()) return lengths;
  if (leaves.size() == 1) {
    lengths[leaves[0].symbol] = 1;
    return lengths;
  }
  std::sort(leaves.begin(), leaves.end(), [](const Leaf& a, const Leaf& b) {
    return a.freq < b.freq || (a.freq == b.freq && a.symbol < b.symbol);
  });

  // Package-merge. A package is a weight plus the multiset of leaves it
  // contains; every time a leaf appears in a selected package its code
  // length grows by one. With n <= 288 symbols and max_bits <= 15 the
  // quadratic representation is entirely adequate.
  struct Package {
    std::uint64_t weight;
    std::vector<std::uint16_t> symbols;
  };
  auto leaf_packages = [&] {
    std::vector<Package> v;
    v.reserve(leaves.size());
    for (const Leaf& l : leaves) v.push_back({l.freq, {l.symbol}});
    return v;
  };

  std::vector<Package> row = leaf_packages();
  for (unsigned level = 1; level < max_bits; ++level) {
    // Pair up adjacent packages.
    std::vector<Package> paired;
    for (std::size_t i = 0; i + 1 < row.size(); i += 2) {
      Package p;
      p.weight = row[i].weight + row[i + 1].weight;
      p.symbols = row[i].symbols;
      p.symbols.insert(p.symbols.end(), row[i + 1].symbols.begin(),
                       row[i + 1].symbols.end());
      paired.push_back(std::move(p));
    }
    // Merge the original leaves back in, keeping weight order.
    std::vector<Package> next = leaf_packages();
    next.insert(next.end(), std::make_move_iterator(paired.begin()),
                std::make_move_iterator(paired.end()));
    std::stable_sort(next.begin(), next.end(),
                     [](const Package& a, const Package& b) {
                       return a.weight < b.weight;
                     });
    row = std::move(next);
  }

  // Select the first 2n-2 packages; each occurrence of a leaf adds one bit.
  const std::size_t take = 2 * leaves.size() - 2;
  for (std::size_t i = 0; i < take && i < row.size(); ++i) {
    for (std::uint16_t s : row[i].symbols) ++lengths[s];
  }
  return lengths;
}

std::vector<std::uint32_t> assign_canonical_codes(
    std::span<const std::uint8_t> lengths) {
  constexpr unsigned kMaxBits = 15;
  std::uint32_t bl_count[kMaxBits + 1] = {};
  for (std::uint8_t l : lengths) {
    assert(l <= kMaxBits);
    if (l > 0) ++bl_count[l];
  }
  std::uint32_t next_code[kMaxBits + 1] = {};
  std::uint32_t code = 0;
  for (unsigned bits = 1; bits <= kMaxBits; ++bits) {
    code = (code + bl_count[bits - 1]) << 1;
    next_code[bits] = code;
  }
  std::vector<std::uint32_t> codes(lengths.size(), 0);
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    if (lengths[i] > 0) codes[i] = next_code[lengths[i]]++;
  }
  return codes;
}

HuffmanEncoder::HuffmanEncoder(std::span<const std::uint8_t> lengths)
    : lengths_(lengths.begin(), lengths.end()) {
  const std::vector<std::uint32_t> codes = assign_canonical_codes(lengths);
  reversed_codes_.resize(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    reversed_codes_[i] = reverse_bits(codes[i], lengths_[i]);
  }
}

bool HuffmanDecoder::build(std::span<const std::uint8_t> lengths) {
  std::fill(std::begin(count_), std::end(count_), 0);
  sorted_.clear();
  for (std::uint8_t l : lengths) {
    if (l > kMaxBits) return false;
    if (l > 0) ++count_[l];
  }
  // Kraft check: the code must not be over-subscribed.
  std::int64_t left = 1;
  for (unsigned l = 1; l <= kMaxBits; ++l) {
    left <<= 1;
    left -= count_[l];
    if (left < 0) return false;
  }
  // offsets of first symbol per length within sorted_.
  std::uint16_t offs[kMaxBits + 1] = {};
  for (unsigned l = 1; l < kMaxBits; ++l) {
    offs[l + 1] = static_cast<std::uint16_t>(offs[l] + count_[l]);
  }
  std::copy(std::begin(offs), std::end(offs), std::begin(offset_));
  sorted_.resize(offs[kMaxBits] + count_[kMaxBits]);
  {
    std::uint16_t fill[kMaxBits + 1];
    std::copy(std::begin(offs), std::end(offs), std::begin(fill));
    for (std::size_t sym = 0; sym < lengths.size(); ++sym) {
      const std::uint8_t l = lengths[sym];
      if (l > 0) sorted_[fill[l]++] = static_cast<std::uint16_t>(sym);
    }
  }
  // first canonical code per length.
  std::uint32_t code = 0;
  for (unsigned l = 1; l <= kMaxBits; ++l) {
    code = (code + count_[l - 1]) << 1;
    first_[l] = code;
  }
  return true;
}

int HuffmanDecoder::decode(BitReader& in) const {
  std::uint32_t code = 0;
  for (unsigned len = 1; len <= kMaxBits; ++len) {
    if (!in.can_read(1)) return -1;
    code = (code << 1) | in.read_bit();
    if (count_[len] != 0 && code < first_[len] + count_[len] &&
        code >= first_[len]) {
      return sorted_[offset_[len] + (code - first_[len])];
    }
  }
  return -2;
}

}  // namespace hsim::deflate
