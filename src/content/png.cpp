#include "content/png.hpp"

#include <algorithm>
#include <cstring>

#include "deflate/checksum.hpp"
#include "deflate/deflate.hpp"
#include "deflate/inflate.hpp"

namespace hsim::content {

namespace {

constexpr std::uint8_t kSignature[8] = {0x89, 'P',  'N',  'G',
                                        0x0D, 0x0A, 0x1A, 0x0A};

/// PNG bit depth for a palette size: 1, 2, 4 or 8.
unsigned depth_for_palette(std::size_t entries) {
  if (entries <= 2) return 1;
  if (entries <= 4) return 2;
  if (entries <= 16) return 4;
  return 8;
}

std::size_t row_bytes(unsigned width, unsigned depth) {
  return (static_cast<std::size_t>(width) * depth + 7) / 8;
}

/// Packs one row of palette indices at the given depth.
void pack_row(const IndexedImage& img, unsigned y, unsigned depth,
              std::vector<std::uint8_t>& row) {
  std::fill(row.begin(), row.end(), 0);
  for (unsigned x = 0; x < img.width; ++x) {
    const std::uint8_t v = img.at(x, y);
    if (depth == 8) {
      row[x] = v;
    } else {
      const unsigned bit = x * depth;
      row[bit / 8] |= static_cast<std::uint8_t>(
          v << (8 - depth - (bit % 8)));
    }
  }
}

std::uint8_t paeth(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
  const int p = static_cast<int>(a) + b - c;
  const int pa = std::abs(p - a), pb = std::abs(p - b), pc = std::abs(p - c);
  if (pa <= pb && pa <= pc) return a;
  if (pb <= pc) return b;
  return c;
}

/// Applies PNG filter `f` to `cur` given previous row `prev` (bpp = 1 byte
/// for indexed images).
void apply_filter(unsigned f, std::span<const std::uint8_t> cur,
                  std::span<const std::uint8_t> prev,
                  std::vector<std::uint8_t>& out) {
  out.resize(cur.size());
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const std::uint8_t a = i > 0 ? cur[i - 1] : 0;
    const std::uint8_t b = prev.empty() ? 0 : prev[i];
    const std::uint8_t c = (i > 0 && !prev.empty()) ? prev[i - 1] : 0;
    switch (f) {
      case 0: out[i] = cur[i]; break;
      case 1: out[i] = static_cast<std::uint8_t>(cur[i] - a); break;
      case 2: out[i] = static_cast<std::uint8_t>(cur[i] - b); break;
      case 3:
        out[i] = static_cast<std::uint8_t>(cur[i] - ((a + b) / 2));
        break;
      default:
        out[i] = static_cast<std::uint8_t>(cur[i] - paeth(a, b, c));
        break;
    }
  }
}

void unapply_filter(unsigned f, std::vector<std::uint8_t>& cur,
                    std::span<const std::uint8_t> prev) {
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const std::uint8_t a = i > 0 ? cur[i - 1] : 0;
    const std::uint8_t b = prev.empty() ? 0 : prev[i];
    const std::uint8_t c = (i > 0 && !prev.empty()) ? prev[i - 1] : 0;
    switch (f) {
      case 0: break;
      case 1: cur[i] = static_cast<std::uint8_t>(cur[i] + a); break;
      case 2: cur[i] = static_cast<std::uint8_t>(cur[i] + b); break;
      case 3: cur[i] = static_cast<std::uint8_t>(cur[i] + ((a + b) / 2)); break;
      default: cur[i] = static_cast<std::uint8_t>(cur[i] + paeth(a, b, c)); break;
    }
  }
}

std::uint64_t abs_sum(std::span<const std::uint8_t> v) {
  // Treat filtered bytes as signed for the minimum-sum-of-absolute-values
  // heuristic (standard libpng strategy).
  std::uint64_t s = 0;
  for (std::uint8_t b : v) {
    s += b < 128 ? b : 256 - b;
  }
  return s;
}

}  // namespace

void append_u32be(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint32_t read_u32be(std::span<const std::uint8_t> data, std::size_t at) {
  return (static_cast<std::uint32_t>(data[at]) << 24) |
         (static_cast<std::uint32_t>(data[at + 1]) << 16) |
         (static_cast<std::uint32_t>(data[at + 2]) << 8) |
         static_cast<std::uint32_t>(data[at + 3]);
}

void append_chunk(std::vector<std::uint8_t>& out, const char type[4],
                  std::span<const std::uint8_t> data) {
  append_u32be(out, static_cast<std::uint32_t>(data.size()));
  std::vector<std::uint8_t> body(type, type + 4);
  body.insert(body.end(), data.begin(), data.end());
  out.insert(out.end(), body.begin(), body.end());
  append_u32be(out, deflate::crc32(body));
}

std::vector<std::uint32_t> read_palette(std::span<const std::uint8_t> plte) {
  std::vector<std::uint32_t> palette;
  for (std::size_t i = 0; i + 2 < plte.size(); i += 3) {
    palette.push_back((static_cast<std::uint32_t>(plte[i]) << 16) |
                      (static_cast<std::uint32_t>(plte[i + 1]) << 8) |
                      plte[i + 2]);
  }
  return palette;
}

std::vector<std::uint8_t> encode_png(const IndexedImage& image,
                                     PngOptions options) {
  const unsigned depth = depth_for_palette(image.palette.size());
  const std::size_t rb = row_bytes(image.width, depth);

  // Build the filtered scanline stream.
  std::vector<std::uint8_t> raw;
  raw.reserve((rb + 1) * image.height);
  std::vector<std::uint8_t> prev_row;
  std::vector<std::uint8_t> cur_row(rb);
  std::vector<std::uint8_t> filtered, best;
  for (unsigned y = 0; y < image.height; ++y) {
    pack_row(image, y, depth, cur_row);
    unsigned best_filter = 0;
    apply_filter(0, cur_row, prev_row, best);
    if (options.adaptive_filtering) {
      std::uint64_t best_score = abs_sum(best);
      for (unsigned f = 1; f <= 4; ++f) {
        apply_filter(f, cur_row, prev_row, filtered);
        const std::uint64_t score = abs_sum(filtered);
        if (score < best_score) {
          best_score = score;
          best_filter = f;
          best = filtered;
        }
      }
    }
    raw.push_back(static_cast<std::uint8_t>(best_filter));
    raw.insert(raw.end(), best.begin(), best.end());
    prev_row = cur_row;
  }

  std::vector<std::uint8_t> out(kSignature, kSignature + 8);

  // IHDR
  std::vector<std::uint8_t> ihdr;
  append_u32be(ihdr, image.width);
  append_u32be(ihdr, image.height);
  ihdr.push_back(static_cast<std::uint8_t>(depth));
  ihdr.push_back(3);  // color type: indexed
  ihdr.push_back(0);  // compression: deflate
  ihdr.push_back(0);  // filter method 0
  ihdr.push_back(0);  // no interlace
  append_chunk(out, "IHDR", ihdr);

  if (options.include_gamma) {
    std::vector<std::uint8_t> gama;
    append_u32be(gama, 45455);  // 1/2.2 in 1e-5 units
    append_chunk(out, "gAMA", gama);
  }

  // PLTE
  std::vector<std::uint8_t> plte;
  for (std::uint32_t c : image.palette) {
    plte.push_back(static_cast<std::uint8_t>((c >> 16) & 0xFF));
    plte.push_back(static_cast<std::uint8_t>((c >> 8) & 0xFF));
    plte.push_back(static_cast<std::uint8_t>(c & 0xFF));
  }
  append_chunk(out, "PLTE", plte);

  // IDAT
  const auto idat = deflate::zlib_compress(raw);  // level 6
  append_chunk(out, "IDAT", idat);

  append_chunk(out, "IEND", {});
  return out;
}

PngDecodeResult decode_png(std::span<const std::uint8_t> data) {
  PngDecodeResult result;
  if (data.size() < 8 || std::memcmp(data.data(), kSignature, 8) != 0) {
    result.error = "bad signature";
    return result;
  }
  std::size_t pos = 8;
  unsigned width = 0, height = 0, depth = 0;
  std::vector<std::uint32_t> palette;
  std::vector<std::uint8_t> idat;
  bool had_gamma = false;
  bool saw_end = false;

  while (pos + 12 <= data.size() && !saw_end) {
    const std::uint32_t len = read_u32be(data, pos);
    if (pos + 12 + len > data.size()) {
      result.error = "truncated chunk";
      return result;
    }
    const char* type = reinterpret_cast<const char*>(&data[pos + 4]);
    std::span<const std::uint8_t> body(&data[pos + 8], len);
    const std::uint32_t expect_crc = read_u32be(data, pos + 8 + len);
    const std::uint32_t got_crc =
        deflate::crc32(std::span(&data[pos + 4], len + 4));
    if (expect_crc != got_crc) {
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
      if (body[9] != 3) {  // color type: indexed
        result.error = "unsupported format (only indexed)";
        return result;
      }
    } else if (std::memcmp(type, "PLTE", 4) == 0) {
      palette = read_palette(body);
    } else if (std::memcmp(type, "IDAT", 4) == 0) {
      idat.insert(idat.end(), body.begin(), body.end());
    } else if (std::memcmp(type, "gAMA", 4) == 0) {
      had_gamma = true;
    } else if (std::memcmp(type, "IEND", 4) == 0) {
      saw_end = true;
    }
    pos += 12 + len;
  }
  if (!saw_end) {
    result.error = "incomplete png";
    return result;
  }
  result = decode_png_scanlines(width, height, depth, std::move(palette), idat);
  result.had_gamma = had_gamma;
  return result;
}

PngDecodeResult decode_png_scanlines(unsigned width, unsigned height,
                                     unsigned depth,
                                     std::vector<std::uint32_t> palette,
                                     std::span<const std::uint8_t> idat) {
  PngDecodeResult result;
  if (depth != 1 && depth != 2 && depth != 4 && depth != 8) {
    result.error = "unsupported format (only indexed)";
    return result;
  }
  if (width == 0 || height == 0 || palette.empty()) {
    result.error = "incomplete png";
    return result;
  }
  const std::size_t rb = row_bytes(width, depth);
  const std::size_t scanline_bytes = (rb + 1) * height;
  const auto inflated = deflate::zlib_decompress(idat, scanline_bytes);
  if (!inflated.ok) {
    result.error = "idat: " + inflated.error;
    return result;
  }
  if (inflated.data.size() != scanline_bytes) {
    result.error = "scanline size mismatch";
    return result;
  }

  IndexedImage img;
  img.width = width;
  img.height = height;
  img.palette = std::move(palette);
  img.pixels.resize(static_cast<std::size_t>(width) * height);
  std::vector<std::uint8_t> prev;
  std::vector<std::uint8_t> cur(rb);
  for (unsigned y = 0; y < height; ++y) {
    const std::size_t row_start = y * (rb + 1);
    const unsigned filter = inflated.data[row_start];
    if (filter > 4) {
      result.error = "bad filter";
      return result;
    }
    cur.assign(inflated.data.begin() + row_start + 1,
               inflated.data.begin() + row_start + 1 + rb);
    unapply_filter(filter, cur, prev);
    for (unsigned x = 0; x < width; ++x) {
      std::uint8_t v;
      if (depth == 8) {
        v = cur[x];
      } else {
        const std::size_t bit = static_cast<std::size_t>(x) * depth;
        v = static_cast<std::uint8_t>(
            (cur[bit / 8] >> (8 - depth - (bit % 8))) & ((1u << depth) - 1));
      }
      img.pixels[static_cast<std::size_t>(y) * width + x] = v;
    }
    prev = cur;
  }
  result.image = std::move(img);
  result.ok = true;
  return result;
}

}  // namespace hsim::content
