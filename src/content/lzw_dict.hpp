// The string table of an LZW encoder, shared by the GIF encoder and the
// V.42bis modem model.
#pragma once

#include <array>
#include <cstdint>

namespace hsim::content {

/// Maps an LZW key, (prefix_code << 8 | byte), to its code. Open addressing
/// with linear probing over 2^kSlotBits slots; callers keep at most half of
/// them live, so probes stay short. A slot stores key + 1, so 0 marks it
/// empty (key 0 is real: prefix 0 followed by byte 0).
template <unsigned kSlotBits>
class LzwDict {
 public:
  /// The slot that holds `key`, or the empty slot where it belongs.
  std::uint32_t slot(std::uint32_t key) const {
    // Multiplicative hash: the top kSlotBits bits of key * 2^32/phi.
    std::uint32_t s = (key * 2654435761u) >> (32 - kSlotBits);
    while (keys_[s] != 0 && keys_[s] != key + 1) s = (s + 1) & (kSlots - 1);
    return s;
  }
  bool holds(std::uint32_t slot) const { return keys_[slot] != 0; }
  std::uint32_t code(std::uint32_t slot) const { return codes_[slot]; }
  /// Stores `key` -> `code` in the empty `slot` that slot(key) returned.
  void put(std::uint32_t slot, std::uint32_t key, std::uint32_t code) {
    keys_[slot] = key + 1;
    codes_[slot] = static_cast<std::uint16_t>(code);
  }
  void clear() { keys_.fill(0); }

 private:
  static constexpr std::uint32_t kSlots = 1u << kSlotBits;
  std::array<std::uint32_t, kSlots> keys_{};
  std::array<std::uint16_t, kSlots> codes_{};
};

}  // namespace hsim::content
