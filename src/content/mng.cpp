#include "content/mng.hpp"

#include <cstring>
#include <iterator>

#include "content/png.hpp"
#include "deflate/checksum.hpp"
#include "deflate/deflate.hpp"
#include "deflate/inflate.hpp"

namespace hsim::content {

namespace {

constexpr std::uint8_t kMngSignature[8] = {0x8A, 'M',  'N',  'G',
                                           0x0D, 0x0A, 0x1A, 0x0A};

}  // namespace

std::vector<std::uint8_t> encode_mng(const Animation& animation) {
  if (animation.frames.empty()) return {};
  std::vector<std::uint8_t> out(std::begin(kMngSignature),
                                std::end(kMngSignature));

  const IndexedImage& first = animation.frames.front();
  std::vector<std::uint8_t> mhdr;
  append_u32be(mhdr, first.width);
  append_u32be(mhdr, first.height);
  append_u32be(mhdr, 100 / std::max(1u, animation.delay_centiseconds));
  append_u32be(mhdr, 0);  // layer count unknown
  append_u32be(mhdr, static_cast<std::uint32_t>(animation.frames.size()));
  append_u32be(mhdr, 0);  // play time unknown
  append_u32be(mhdr, 0);  // simplicity profile
  append_chunk(out, "MHDR", mhdr);

  // First frame: a full PNG datastream (without the PNG signature; the
  // chunks are embedded directly, as MNG does).
  {
    const auto png = encode_png(first, PngOptions{});
    out.insert(out.end(), png.begin() + 8, png.end() - 12);  // strip sig+IEND
  }

  // Subsequent frames: delta against the previous frame, deflate-compressed.
  for (std::size_t f = 1; f < animation.frames.size(); ++f) {
    const IndexedImage& prev = animation.frames[f - 1];
    const IndexedImage& cur = animation.frames[f];
    std::vector<std::uint8_t> delta(cur.pixels.size());
    for (std::size_t i = 0; i < cur.pixels.size(); ++i) {
      delta[i] = static_cast<std::uint8_t>(cur.pixels[i] - prev.pixels[i]);
    }
    const auto compressed = deflate::zlib_compress(delta);
    append_chunk(out, "DIDT", compressed);  // delta-IDAT (simplified)
  }

  append_chunk(out, "MEND", {});
  return out;
}

MngDecodeResult decode_mng(std::span<const std::uint8_t> data) {
  MngDecodeResult result;
  if (data.size() < 8 || std::memcmp(data.data(), kMngSignature, 8) != 0) {
    result.error = "bad signature";
    return result;
  }
  std::size_t pos = 8;
  unsigned width = 0, height = 0, depth = 0;
  std::vector<std::uint32_t> palette;
  std::vector<std::uint8_t> idat;
  bool mend = false;

  auto finish_first_frame = [&]() -> bool {
    if (!idat.empty() && result.animation.frames.empty()) {
      // The first frame is the PNG chunks embedded directly.
      PngDecodeResult frame =
          decode_png_scanlines(width, height, depth, palette, idat);
      if (!frame.ok) {
        result.error = "first frame: " + frame.error;
        return false;
      }
      result.animation.frames.push_back(std::move(frame.image));
    }
    return true;
  };

  while (pos + 12 <= data.size() && !mend) {
    const std::uint32_t len = read_u32be(data, pos);
    if (pos + 12 + len > data.size()) {
      result.error = "truncated chunk";
      return result;
    }
    const char* type = reinterpret_cast<const char*>(&data[pos + 4]);
    std::span<const std::uint8_t> body(&data[pos + 8], len);
    if (read_u32be(data, pos + 8 + len) !=
        deflate::crc32(std::span(&data[pos + 4], len + 4))) {
      result.error = "chunk crc mismatch";
      return result;
    }
    if (std::memcmp(type, "IHDR", 4) == 0) {
      if (len != 13) {
        result.error = "bad IHDR";
        return result;
      }
      width = read_u32be(body, 0);
      height = read_u32be(body, 4);
      depth = body[8];
    } else if (std::memcmp(type, "PLTE", 4) == 0) {
      palette = read_palette(body);
    } else if (std::memcmp(type, "IDAT", 4) == 0) {
      idat.insert(idat.end(), body.begin(), body.end());
    } else if (std::memcmp(type, "DIDT", 4) == 0) {
      if (!finish_first_frame()) return result;
      if (result.animation.frames.empty()) {
        result.error = "delta before first frame";
        return result;
      }
      const IndexedImage& prev = result.animation.frames.back();
      const auto delta = deflate::zlib_decompress(body, prev.pixels.size());
      if (!delta.ok) {
        result.error = "delta inflate: " + delta.error;
        return result;
      }
      if (delta.data.size() != prev.pixels.size()) {
        result.error = "delta size mismatch";
        return result;
      }
      IndexedImage next = prev;
      for (std::size_t i = 0; i < delta.data.size(); ++i) {
        next.pixels[i] =
            static_cast<std::uint8_t>(prev.pixels[i] + delta.data[i]);
      }
      result.animation.frames.push_back(std::move(next));
    } else if (std::memcmp(type, "MEND", 4) == 0) {
      if (!finish_first_frame()) return result;
      mend = true;
    }
    pos += 12 + len;
  }
  result.ok = mend && !result.animation.frames.empty();
  if (!result.ok && result.error.empty()) result.error = "incomplete mng";
  return result;
}

}  // namespace hsim::content
