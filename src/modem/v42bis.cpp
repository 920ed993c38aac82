#include "modem/v42bis.hpp"

#include <algorithm>

namespace hsim::modem {

void V42bis::clear_dict() {
  dict_.clear();
  next_code_ = 259;
  code_width_ = 9;
}

void V42bis::reset() {
  clear_dict();
  current_ = UINT32_MAX;
  total_in_ = 0;
}

std::size_t V42bis::lzw_bits(std::span<const std::uint8_t> payload) {
  std::size_t bits = 0;
  for (std::uint8_t byte : payload) {
    if (current_ == UINT32_MAX) {
      current_ = byte;
      continue;
    }
    const std::uint32_t key = (current_ << 8) | byte;
    const std::uint32_t slot = dict_.slot(key);
    if (dict_.holds(slot)) {
      current_ = dict_.code(slot);
      continue;
    }
    bits += code_width_;  // emit `current_`
    if (next_code_ < kDictionarySize) {
      dict_.put(slot, key, next_code_++);
      if (next_code_ > (1u << code_width_) && code_width_ < 11) {
        ++code_width_;
      }
    } else {
      // Dictionary full: V.42bis recycles entries; modelled as a flush.
      clear_dict();
    }
    current_ = byte;
  }
  return bits;
}

std::size_t V42bis::process(std::span<const std::uint8_t> payload) {
  if (payload.empty()) return 0;
  total_in_ += payload.size();
  const std::size_t bits = lzw_bits(payload);
  // The match in progress (current_) spans into the next packet; charge the
  // portion emitted so far plus a small framing cost per chunk.
  std::size_t compressed = (bits + 7) / 8 + 1;
  // Transparent mode: never transmit more than payload + 1 escape byte.
  compressed = std::min(compressed, payload.size() + 1);
  return compressed;
}

net::Link::PayloadSizer make_modem_sizer(std::shared_ptr<V42bis> state) {
  return [state](const net::Packet& packet) {
    return state->process(
        std::span<const std::uint8_t>(packet.payload.data(),
                                      packet.payload.size()));
  };
}

}  // namespace hsim::modem
