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

void append_u32be(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t read_u32be(std::span<const std::uint8_t> d, std::size_t at) {
  return (static_cast<std::uint32_t>(d[at]) << 24) |
         (static_cast<std::uint32_t>(d[at + 1]) << 16) |
         (static_cast<std::uint32_t>(d[at + 2]) << 8) |
         static_cast<std::uint32_t>(d[at + 3]);
}

void append_chunk(std::vector<std::uint8_t>& out, const char type[4],
                  std::span<const std::uint8_t> data) {
  append_u32be(out, static_cast<std::uint32_t>(data.size()));
  std::vector<std::uint8_t> body(type, type + 4);
  body.insert(body.end(), data.begin(), data.end());
  out.insert(out.end(), body.begin(), body.end());
  append_u32be(out, deflate::crc32(body));
}

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
      // Reconstruct a PNG datastream and reuse the PNG decoder.
      std::vector<std::uint8_t> png = {0x89, 'P',  'N',  'G',
                                       0x0D, 0x0A, 0x1A, 0x0A};
      std::vector<std::uint8_t> ihdr;
      append_u32be(ihdr, width);
      append_u32be(ihdr, height);
      ihdr.push_back(static_cast<std::uint8_t>(depth));
      ihdr.push_back(3);
      ihdr.push_back(0);
      ihdr.push_back(0);
      ihdr.push_back(0);
      append_chunk(png, "IHDR", ihdr);
      std::vector<std::uint8_t> plte;
      for (std::uint32_t c : palette) {
        plte.push_back(static_cast<std::uint8_t>((c >> 16) & 0xFF));
        plte.push_back(static_cast<std::uint8_t>((c >> 8) & 0xFF));
        plte.push_back(static_cast<std::uint8_t>(c & 0xFF));
      }
      append_chunk(png, "PLTE", plte);
      append_chunk(png, "IDAT", idat);
      append_chunk(png, "IEND", {});
      PngDecodeResult frame = decode_png(png);
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
    if (std::memcmp(type, "IHDR", 4) == 0) {
      width = read_u32be(data, pos + 8);
      height = read_u32be(data, pos + 12);
      depth = body[8];
    } else if (std::memcmp(type, "PLTE", 4) == 0) {
      palette.clear();
      for (std::size_t i = 0; i + 2 < len; i += 3) {
        palette.push_back((static_cast<std::uint32_t>(body[i]) << 16) |
                          (static_cast<std::uint32_t>(body[i + 1]) << 8) |
                          body[i + 2]);
      }
    } else if (std::memcmp(type, "IDAT", 4) == 0) {
      idat.insert(idat.end(), body.begin(), body.end());
    } else if (std::memcmp(type, "DIDT", 4) == 0) {
      if (!finish_first_frame()) return result;
      if (result.animation.frames.empty()) {
        result.error = "delta before first frame";
        return result;
      }
      const auto delta = deflate::zlib_decompress(body);
      if (!delta.ok) {
        result.error = "delta inflate: " + delta.error;
        return result;
      }
      const IndexedImage& prev = result.animation.frames.back();
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
