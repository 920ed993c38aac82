#include "server/static_site.hpp"

#include <cstdio>

#include "deflate/checksum.hpp"
#include "deflate/deflate.hpp"

namespace hsim::server {

namespace {

void scan_push_list(Resource& r) {
  r.image_refs.clear();
  if (std::string_view(r.content_type).starts_with("text/html")) {
    content::scan_image_references(r.data.view(), 0, r.image_refs);
  }
}

}  // namespace

void StaticSite::add(Resource resource) {
  scan_push_list(resource);
  std::string key = resource.path;
  resources_[std::move(key)] = std::move(resource);
}

const Resource* StaticSite::find(const std::string& path) const {
  const auto it = resources_.find(path);
  return it == resources_.end() ? nullptr : &it->second;
}

bool StaticSite::update(const std::string& path,
                        std::vector<std::uint8_t> data,
                        http::UnixSeconds modified_at) {
  const auto it = resources_.find(path);
  if (it == resources_.end()) return false;
  Resource& r = it->second;
  r.data = buf::Bytes(std::move(data));
  r.etag = make_etag(r.data.span());
  r.last_modified = modified_at;
  scan_push_list(r);
  if (!r.deflated.empty()) {
    r.deflated = buf::Bytes(deflate::zlib_compress(r.data.span()));
  }
  return true;
}

std::size_t StaticSite::total_bytes() const {
  std::size_t n = 0;
  for (const auto& [path, r] : resources_) n += r.data.size();
  return n;
}

std::string make_etag(std::span<const std::uint8_t> data) {
  // Opaque strong validator; CRC-32 over the content is plenty for the
  // simulation and matches the typical "short opaque string" wire cost.
  char buf[16];
  std::snprintf(buf, sizeof buf, "\"%08x\"", deflate::crc32(data));
  return buf;
}

StaticSite StaticSite::from_microscape(const content::MicroscapeSite& site,
                                       bool precompress_html) {
  StaticSite out;
  Resource html;
  html.path = "/index.html";
  html.content_type = "text/html";
  html.data = buf::Bytes(std::string_view(site.html));
  html.etag = make_etag(html.data.span());
  if (precompress_html) {
    html.deflated = buf::Bytes(deflate::zlib_compress(html.data.span()));
  }
  out.add(std::move(html));

  for (const content::SiteImage& img : site.images) {
    Resource r;
    r.path = img.path;
    r.content_type = "image/gif";
    r.data = buf::Bytes(std::span<const std::uint8_t>(img.gif_bytes));
    r.etag = make_etag(r.data.span());
    out.add(std::move(r));
  }
  return out;
}

}  // namespace hsim::server
