#include "content/microscape.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

#include "content/gif.hpp"

namespace hsim::content {

namespace {

constexpr std::uint64_t kSeed = 1997;
constexpr std::size_t kHtmlBytes = 42 * 1024;

/// Published size histogram of the 40 static images (bytes). 19 under 1 KB,
/// 7 of 1-2 KB, 6 of 2-3 KB, 8 larger including the ~40 KB hero; the total
/// approximates the paper's 103,299 bytes. Entry 14 is the 682-byte
/// "solutions" banner of Figure 1.
constexpr std::array<std::size_t, 40> kStaticTargets = {
    70,   120,  150,  180,   220,  250,  280,  320,  360,  400,
    450,  500,  560,  620,   682,  740,  800,  870,  950,  1100,
    1250, 1400, 1500, 1650,  1800, 1950, 2100, 2300, 2500, 2600,
    2800, 2950, 3000, 3300,  3700, 4200, 4800, 5500, 6800, 40000};

/// The two animations total ~24,988 bytes.
constexpr std::array<std::size_t, 2> kAnimationTargets = {9000, 16000};

ImageKind kind_for_target(std::size_t bytes, std::uint64_t seed) {
  if (bytes < 110) return ImageKind::kSpacer;
  if (bytes < 500) return ImageKind::kBullet;
  if (bytes < 1200) return ImageKind::kTextBanner;
  if (bytes < 3000) return seed % 2 == 0 ? ImageKind::kTextBanner
                                         : ImageKind::kLogo;
  if (bytes < 20000) return ImageKind::kLogo;
  return ImageKind::kPhoto;
}

unsigned colors_for_kind(ImageKind kind) {
  switch (kind) {
    case ImageKind::kSpacer: return 2;
    case ImageKind::kBullet: return 4;
    case ImageKind::kTextBanner: return 4;
    case ImageKind::kLogo: return 16;
    case ImageKind::kPhoto: return 32;
  }
  return 4;
}

SiteImage build_static_image(std::size_t index, std::size_t target_bytes,
                             std::uint64_t seed) {
  SyntheticSpec base;
  base.kind = kind_for_target(target_bytes, seed + index);
  base.colors = colors_for_kind(base.kind);
  base.seed = seed * 131 + index;
  base.width = 24;
  base.height = base.kind == ImageKind::kTextBanner ? 24 : 16;

  const SyntheticSpec fitted = fit_spec_to_size(
      base, target_bytes,
      [](const SyntheticSpec& s) { return encode_gif(generate_image(s)).size(); });

  SiteImage img;
  char path[64];
  std::snprintf(path, sizeof path, "/images/img%02zu.gif", index);
  img.path = path;
  img.kind = fitted.kind;
  img.source = generate_image(fitted);
  img.width = img.source.width;
  img.height = img.source.height;
  img.gif_bytes = encode_gif(img.source);
  return img;
}

SiteImage build_animation(std::size_t index, std::size_t target_bytes,
                          std::uint64_t seed) {
  constexpr unsigned kFrames = 8;
  SyntheticSpec base;
  base.kind = ImageKind::kLogo;
  base.colors = 16;
  base.seed = seed * 977 + index;
  base.width = 40;
  base.height = 30;

  const SyntheticSpec fitted = fit_spec_to_size(
      base, target_bytes, [](const SyntheticSpec& s) {
        return encode_animated_gif(generate_animation(s, kFrames)).size();
      });

  SiteImage img;
  char path[64];
  std::snprintf(path, sizeof path, "/images/anim%02zu.gif", index);
  img.path = path;
  img.kind = ImageKind::kLogo;
  img.animated = true;
  img.source_animation = generate_animation(fitted, kFrames);
  img.width = img.source_animation.frames.front().width;
  img.height = img.source_animation.frames.front().height;
  img.gif_bytes = encode_animated_gif(img.source_animation);
  return img;
}

/// 1997-flavoured HTML around the 42 image references, padded with realistic
/// markup until the target size is reached.
std::string build_html(const std::vector<SiteImage>& images,
                       std::size_t target_bytes, sim::Rng& rng) {
  static const char* kWords[] = {
      "solutions", "products",   "download",  "support",   "internet",
      "netscape",  "microsoft",  "explorer",  "homepage",  "developer",
      "software",  "services",   "community", "business",  "partners",
      "security",  "multimedia", "directory", "channels",  "navigator"};
  static const char* kSyllables[] = {"ac", "tor", "net", "web", "ma", "li",
                                     "com", "ser", "ver", "pro", "in", "dex",
                                     "sta", "ge", "on", "ix", "ca", "ble",
                                     "mo", "dem", "su", "per", "vi", "sion"};
  // Real 1997 home pages mixed boilerplate markup (very compressible) with
  // genuine prose, product names and numbers (much less so). The synthetic
  // word stream blends a small hot vocabulary with generated names so the
  // page deflates by the paper's factor of ~3.8, not by 9.
  auto word = [&]() -> std::string {
    if (rng.chance(0.45)) return kWords[rng.uniform(0, 19)];
    std::string w;
    const int syllables = static_cast<int>(rng.uniform(2, 4));
    for (int i = 0; i < syllables; ++i) w += kSyllables[rng.uniform(0, 23)];
    if (rng.chance(0.3)) w += std::to_string(rng.uniform(0, 97));
    return w;
  };

  std::string html;
  html.reserve(target_bytes + 1024);
  html +=
      "<html>\n<head>\n<title>Microscape - combined home page test "
      "site</title>\n<meta http-equiv=\"Content-Type\" "
      "content=\"text/html\">\n</head>\n"
      "<body bgcolor=\"#FFFFFF\" text=\"#000000\" link=\"#0000EE\">\n"
      "<center>\n<table border=\"0\" cellspacing=\"0\" cellpadding=\"0\" "
      "width=\"600\">\n";

  // Interleave image references with padding rows so that references are
  // spread through the document the way a real page spreads them (this is
  // what determines how many <img> tags fit in the first TCP segment).
  const std::size_t per_image_budget =
      target_bytes / (images.size() + 1);
  std::size_t next_image = 0;
  char buf[512];
  while (next_image < images.size() || html.size() < target_bytes - 64) {
    if (next_image < images.size() &&
        html.size() >= (next_image + 1) * per_image_budget -
                           per_image_budget / 2) {
      const SiteImage& img = images[next_image];
      std::snprintf(buf, sizeof buf,
                    "<tr><td align=\"left\" valign=\"top\"><a "
                    "href=\"/%s.html\"><img src=\"%s\" width=\"%u\" "
                    "height=\"%u\" border=\"0\" alt=\"%s\"></a></td></tr>\n",
                    word().c_str(), img.path.c_str(), img.width, img.height,
                    word().c_str());
      html += buf;
      ++next_image;
      continue;
    }
    if (html.size() >= target_bytes - 64 && next_image >= images.size()) {
      break;
    }
    // Padding rows: nav tables, font soup, comments — the redundant markup
    // that makes 1997 HTML deflate so well.
    switch (rng.uniform(0, 3)) {
      case 0:
        std::snprintf(buf, sizeof buf,
                      "<tr><td align=\"center\"><font face=\"Arial, "
                      "Helvetica\" size=\"2\"><a href=\"/%s/%s.html\">%s "
                      "%s</a>&nbsp;|&nbsp;<a href=\"/%s/index.html\">%s"
                      "</a></font></td></tr>\n",
                      word().c_str(), word().c_str(), word().c_str(),
                      word().c_str(), word().c_str(), word().c_str());
        break;
      case 1:
        std::snprintf(buf, sizeof buf,
                      "<tr><td bgcolor=\"#003366\"><font color=\"#FFFFFF\" "
                      "size=\"3\"><b>%s %s %s</b></font><br>%s %s %s %s "
                      "%s.</td></tr>\n",
                      word().c_str(), word().c_str(), word().c_str(),
                      word().c_str(), word().c_str(), word().c_str(),
                      word().c_str(), word().c_str());
        break;
      case 2:
        std::snprintf(buf, sizeof buf,
                      "<!-- %s %s navigation section -->\n<tr><td><table "
                      "border=\"0\" width=\"100%%\"><tr><td>%s</td><td>%s"
                      "</td><td>%s</td></tr></table></td></tr>\n",
                      word().c_str(), word().c_str(), word().c_str(),
                      word().c_str(), word().c_str());
        break;
      default:
        std::snprintf(buf, sizeof buf,
                      "<tr><td><font size=\"2\">%s %s %s %s %s %s %s %s %s "
                      "%s</font></td></tr>\n",
                      word().c_str(), word().c_str(), word().c_str(),
                      word().c_str(), word().c_str(), word().c_str(),
                      word().c_str(), word().c_str(), word().c_str(),
                      word().c_str());
        break;
    }
    html += buf;
  }
  html += "</table>\n</center>\n</body>\n</html>\n";
  return html;
}

}  // namespace

std::size_t MicroscapeSite::static_gif_bytes() const {
  std::size_t n = 0;
  for (const SiteImage& img : images) {
    if (!img.animated) n += img.gif_bytes.size();
  }
  return n;
}

std::size_t MicroscapeSite::animated_gif_bytes() const {
  std::size_t n = 0;
  for (const SiteImage& img : images) {
    if (img.animated) n += img.gif_bytes.size();
  }
  return n;
}

std::size_t MicroscapeSite::total_image_bytes() const {
  return static_gif_bytes() + animated_gif_bytes();
}

std::vector<ImageReplacement> MicroscapeSite::css_replacements() const {
  std::vector<ImageReplacement> out;
  for (const SiteImage& img : images) {
    if (img.animated) continue;  // the CSS analysis covers the 40 static GIFs
    out.push_back(make_replacement(img.path, img.kind, img.gif_bytes.size(),
                                   img.width, img.height));
  }
  return out;
}

MicroscapeSite build_microscape() {
  MicroscapeSite site;
  sim::Rng rng(kSeed);
  for (std::size_t i = 0; i < kStaticTargets.size(); ++i) {
    site.images.push_back(build_static_image(i, kStaticTargets[i], kSeed));
  }
  for (std::size_t i = 0; i < kAnimationTargets.size(); ++i) {
    site.images.push_back(build_animation(i, kAnimationTargets[i], kSeed));
  }
  // Spread the animations through the page rather than leaving them last.
  std::swap(site.images[8], site.images[40]);
  std::swap(site.images[25], site.images[41]);
  site.html = build_html(site.images, kHtmlBytes, rng);
  return site;
}

MicroscapeSite modernize_site(const MicroscapeSite& site, ModernCodec codec) {
  MicroscapeSite modern = site;
  for (std::size_t i = 0; i < modern.images.size(); ++i) {
    SiteImage& img = modern.images[i];
    const std::size_t size = modern_encoded_size(
        img.gif_bytes.size(), img.kind, img.animated, codec);
    // Seed from the image's position so every asset gets distinct (but
    // stable) incompressible bytes.
    img.gif_bytes = modern_container_bytes(codec, size, 0xC0DEC000 + i);

    std::string path = img.path;
    const std::size_t dot = path.rfind(".gif");
    if (dot != std::string::npos) {
      path.replace(dot, 4, extension(codec));
      // Every HTML reference follows the path rename.
      for (std::size_t at = modern.html.find(img.path);
           at != std::string::npos;
           at = modern.html.find(img.path, at + path.size())) {
        modern.html.replace(at, img.path.size(), path);
      }
      img.path = std::move(path);
    }
  }
  return modern;
}

std::size_t scan_image_references(std::string_view html_prefix,
                                  std::size_t from,
                                  std::vector<std::string>& refs) {
  for (;;) {
    const std::size_t img = html_prefix.find("<img ", from);
    if (img == std::string_view::npos) break;
    const std::size_t src = html_prefix.find("src=\"", img);
    if (src == std::string_view::npos) break;
    const std::size_t start = src + 5;
    const std::size_t end = html_prefix.find('"', start);
    if (end == std::string_view::npos) break;  // tag still incomplete
    refs.emplace_back(html_prefix.substr(start, end - start));
    from = end + 1;
  }
  return from;
}

std::vector<std::string> scan_image_references(std::string_view html_prefix) {
  std::vector<std::string> refs;
  scan_image_references(html_prefix, 0, refs);
  return refs;
}

}  // namespace hsim::content
