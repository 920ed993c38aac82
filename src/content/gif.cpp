#include "content/gif.hpp"

#include <algorithm>
#include <cstring>
#include <map>

namespace hsim::content {

namespace {

constexpr unsigned kMaxCodeWidth = 12;
constexpr unsigned kMaxCodes = 1u << kMaxCodeWidth;

// LSB-first bit packer (GIF packs LZW codes LSB first, like DEFLATE).
class LzwBitWriter {
 public:
  void write(std::uint32_t code, unsigned width) {
    acc_ |= static_cast<std::uint64_t>(code) << used_;
    used_ += width;
    while (used_ >= 8) {
      bytes_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ >>= 8;
      used_ -= 8;
    }
  }
  std::vector<std::uint8_t> take() {
    if (used_ > 0) bytes_.push_back(static_cast<std::uint8_t>(acc_));
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;
  unsigned used_ = 0;
};

class LzwBitReader {
 public:
  explicit LzwBitReader(std::span<const std::uint8_t> data) : data_(data) {}
  bool read(std::uint32_t& code, unsigned width) {
    while (used_ < width) {
      if (byte_ >= data_.size()) return false;
      acc_ |= static_cast<std::uint64_t>(data_[byte_++]) << used_;
      used_ += 8;
    }
    code = static_cast<std::uint32_t>(acc_ & ((1u << width) - 1));
    acc_ >>= width;
    used_ -= width;
    return true;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t byte_ = 0;
  std::uint64_t acc_ = 0;
  unsigned used_ = 0;
};

void append_u16(std::vector<std::uint8_t>& out, unsigned v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

/// Splits raw LZW bytes into 255-byte sub-blocks with a 0 terminator.
void append_sub_blocks(std::vector<std::uint8_t>& out,
                       std::span<const std::uint8_t> data) {
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t n = std::min<std::size_t>(255, data.size() - pos);
    out.push_back(static_cast<std::uint8_t>(n));
    out.insert(out.end(), data.begin() + pos, data.begin() + pos + n);
    pos += n;
  }
  out.push_back(0);
}

unsigned palette_field(const IndexedImage& img) {
  // Size field N encodes 2^(N+1) palette entries.
  unsigned n = 0;
  while ((2u << n) < img.palette.size()) ++n;
  return n;
}

void append_color_table(std::vector<std::uint8_t>& out,
                        const IndexedImage& img) {
  const unsigned n = palette_field(img);
  const std::size_t entries = 2u << n;
  for (std::size_t i = 0; i < entries; ++i) {
    const std::uint32_t c = i < img.palette.size() ? img.palette[i] : 0;
    out.push_back(static_cast<std::uint8_t>((c >> 16) & 0xFF));
    out.push_back(static_cast<std::uint8_t>((c >> 8) & 0xFF));
    out.push_back(static_cast<std::uint8_t>(c & 0xFF));
  }
}

void append_image_frame(std::vector<std::uint8_t>& out,
                        const IndexedImage& img) {
  out.push_back(0x2C);  // image separator
  append_u16(out, 0);   // left
  append_u16(out, 0);   // top
  append_u16(out, img.width);
  append_u16(out, img.height);
  out.push_back(0);  // no local color table, not interlaced

  const unsigned min_code_size = std::max(2u, img.bit_depth());
  out.push_back(static_cast<std::uint8_t>(min_code_size));
  const auto lzw = gif_lzw_compress(img.pixels, min_code_size);
  append_sub_blocks(out, lzw);
}

}  // namespace

std::vector<std::uint8_t> gif_lzw_compress(
    std::span<const std::uint8_t> indices, unsigned min_code_size) {
  LzwBitWriter out;
  const std::uint32_t clear_code = 1u << min_code_size;
  const std::uint32_t eoi_code = clear_code + 1;

  // Dictionary maps (prefix_code << 8 | byte) -> code.
  std::map<std::uint32_t, std::uint32_t> dict;
  std::uint32_t next_code = eoi_code + 1;
  unsigned width = min_code_size + 1;

  out.write(clear_code, width);
  if (indices.empty()) {
    out.write(eoi_code, width);
    return out.take();
  }

  auto reset_dict = [&] {
    dict.clear();
    next_code = eoi_code + 1;
    width = min_code_size + 1;
  };

  std::uint32_t current = indices[0];
  for (std::size_t i = 1; i < indices.size(); ++i) {
    const std::uint8_t byte = indices[i];
    const std::uint32_t key = (current << 8) | byte;
    if (auto it = dict.find(key); it != dict.end()) {
      current = it->second;
      continue;
    }
    out.write(current, width);
    dict[key] = next_code++;
    // Widen when the next code to be EMITTED would not fit; GIF widens when
    // next_code exceeds the current width's range.
    if (next_code > (1u << width) && width < kMaxCodeWidth) {
      ++width;
    } else if (next_code >= kMaxCodes) {
      out.write(clear_code, width);
      reset_dict();
    }
    current = byte;
  }
  out.write(current, width);
  out.write(eoi_code, width);
  return out.take();
}

std::optional<std::vector<std::uint8_t>> gif_lzw_decompress(
    std::span<const std::uint8_t> data, unsigned min_code_size) {
  LzwBitReader in(data);
  const std::uint32_t clear_code = 1u << min_code_size;
  const std::uint32_t eoi_code = clear_code + 1;

  std::vector<std::vector<std::uint8_t>> dict;
  unsigned width = 0;
  auto reset_dict = [&] {
    dict.assign(eoi_code + 1, {});
    for (std::uint32_t i = 0; i < clear_code; ++i) {
      dict[i] = {static_cast<std::uint8_t>(i)};
    }
    width = min_code_size + 1;
  };
  reset_dict();

  std::vector<std::uint8_t> out;
  std::uint32_t prev = UINT32_MAX;
  std::uint32_t code = 0;
  while (in.read(code, width)) {
    if (code == clear_code) {
      reset_dict();
      prev = UINT32_MAX;
      continue;
    }
    if (code == eoi_code) return out;
    std::vector<std::uint8_t> entry;
    if (code < dict.size() && !dict[code].empty()) {
      entry = dict[code];
    } else if (code == dict.size() && prev != UINT32_MAX) {
      // The (K omega K) special case.
      entry = dict[prev];
      entry.push_back(dict[prev][0]);
    } else {
      return std::nullopt;
    }
    out.insert(out.end(), entry.begin(), entry.end());
    if (prev != UINT32_MAX && dict.size() < kMaxCodes) {
      std::vector<std::uint8_t> fresh = dict[prev];
      fresh.push_back(entry[0]);
      dict.push_back(std::move(fresh));
      // The decoder's dictionary lags the encoder's by one entry (the encoder
      // adds after each emission; the decoder adds one read later), so widen
      // as soon as the size *reaches* the width limit.
      if (dict.size() >= (1u << width) && width < kMaxCodeWidth) {
        ++width;
      }
    }
    prev = code;
  }
  return std::nullopt;  // missing EOI
}

std::vector<std::uint8_t> encode_gif(const IndexedImage& image) {
  std::vector<std::uint8_t> out = {'G', 'I', 'F', '8', '7', 'a'};
  append_u16(out, image.width);
  append_u16(out, image.height);
  const unsigned pf = palette_field(image);
  out.push_back(static_cast<std::uint8_t>(0x80 | (pf << 4) | pf));
  out.push_back(0);  // background color index
  out.push_back(0);  // aspect ratio
  append_color_table(out, image);
  append_image_frame(out, image);
  out.push_back(0x3B);  // trailer
  return out;
}

std::vector<std::uint8_t> encode_animated_gif(const Animation& animation) {
  if (animation.frames.empty()) return {};
  const IndexedImage& first = animation.frames.front();
  std::vector<std::uint8_t> out = {'G', 'I', 'F', '8', '9', 'a'};
  append_u16(out, first.width);
  append_u16(out, first.height);
  const unsigned pf = palette_field(first);
  out.push_back(static_cast<std::uint8_t>(0x80 | (pf << 4) | pf));
  out.push_back(0);
  out.push_back(0);
  append_color_table(out, first);

  // Netscape looping extension.
  const std::uint8_t loop_ext[] = {0x21, 0xFF, 0x0B, 'N', 'E', 'T', 'S',
                                   'C',  'A',  'P',  'E', '2', '.', '0',
                                   0x03, 0x01, 0x00, 0x00, 0x00};
  out.insert(out.end(), std::begin(loop_ext), std::end(loop_ext));

  for (const IndexedImage& frame : animation.frames) {
    // Graphic control extension (delay).
    out.push_back(0x21);
    out.push_back(0xF9);
    out.push_back(0x04);
    out.push_back(0x00);  // no disposal, no transparency
    append_u16(out, animation.delay_centiseconds);
    out.push_back(0x00);  // transparent color index (unused)
    out.push_back(0x00);  // terminator
    append_image_frame(out, frame);
  }
  out.push_back(0x3B);
  return out;
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

namespace {

struct Cursor {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  bool need(std::size_t n) const { return pos + n <= data.size(); }
  std::uint8_t u8() { return data[pos++]; }
  unsigned u16() {
    const unsigned v = data[pos] | (data[pos + 1] << 8);
    pos += 2;
    return v;
  }
};

bool read_sub_blocks(Cursor& c, std::vector<std::uint8_t>& out) {
  for (;;) {
    if (!c.need(1)) return false;
    const std::uint8_t len = c.u8();
    if (len == 0) return true;
    if (!c.need(len)) return false;
    out.insert(out.end(), c.data.begin() + c.pos,
               c.data.begin() + c.pos + len);
    c.pos += len;
  }
}

}  // namespace

GifDecodeResult decode_gif(std::span<const std::uint8_t> data) {
  GifDecodeResult result;
  Cursor c{data};
  if (!c.need(13)) {
    result.error = "truncated header";
    return result;
  }
  if (std::memcmp(data.data(), "GIF87a", 6) != 0 &&
      std::memcmp(data.data(), "GIF89a", 6) != 0) {
    result.error = "bad signature";
    return result;
  }
  c.pos = 6;
  const unsigned screen_w = c.u16();
  const unsigned screen_h = c.u16();
  const std::uint8_t packed = c.u8();
  c.pos += 2;  // background, aspect
  std::vector<std::uint32_t> global_palette;
  if (packed & 0x80) {
    const std::size_t entries = 2u << (packed & 0x07);
    if (!c.need(entries * 3)) {
      result.error = "truncated palette";
      return result;
    }
    for (std::size_t i = 0; i < entries; ++i) {
      const std::uint32_t r = c.u8(), g = c.u8(), b = c.u8();
      global_palette.push_back((r << 16) | (g << 8) | b);
    }
  }
  (void)screen_w;
  (void)screen_h;

  for (;;) {
    if (!c.need(1)) {
      result.error = "missing trailer";
      return result;
    }
    const std::uint8_t block = c.u8();
    if (block == 0x3B) break;  // trailer
    if (block == 0x21) {       // extension: skip
      if (!c.need(1)) {
        result.error = "truncated extension";
        return result;
      }
      c.u8();  // label
      std::vector<std::uint8_t> ignored;
      if (!read_sub_blocks(c, ignored)) {
        result.error = "truncated extension data";
        return result;
      }
      continue;
    }
    if (block != 0x2C) {
      result.error = "unknown block";
      return result;
    }
    if (!c.need(9)) {
      result.error = "truncated image descriptor";
      return result;
    }
    c.u16();  // left
    c.u16();  // top
    const unsigned w = c.u16();
    const unsigned h = c.u16();
    const std::uint8_t ipacked = c.u8();
    std::vector<std::uint32_t> palette = global_palette;
    if (ipacked & 0x80) {
      const std::size_t entries = 2u << (ipacked & 0x07);
      if (!c.need(entries * 3)) {
        result.error = "truncated local palette";
        return result;
      }
      palette.clear();
      for (std::size_t i = 0; i < entries; ++i) {
        const std::uint32_t r = c.u8(), g = c.u8(), b = c.u8();
        palette.push_back((r << 16) | (g << 8) | b);
      }
    }
    if (!c.need(1)) {
      result.error = "truncated lzw header";
      return result;
    }
    const unsigned min_code_size = c.u8();
    std::vector<std::uint8_t> lzw;
    if (!read_sub_blocks(c, lzw)) {
      result.error = "truncated image data";
      return result;
    }
    const auto pixels = gif_lzw_decompress(lzw, min_code_size);
    if (!pixels || pixels->size() != static_cast<std::size_t>(w) * h) {
      result.error = "lzw decode failed";
      return result;
    }
    IndexedImage img;
    img.width = w;
    img.height = h;
    img.palette = palette;
    img.pixels = *pixels;
    result.frames.push_back(std::move(img));
  }
  result.ok = !result.frames.empty();
  if (!result.ok) result.error = "no frames";
  return result;
}

}  // namespace hsim::content
