// Static resource store for the HTTP server: bodies, validators (ETag +
// Last-Modified) and optional precomputed deflate variants.
//
// The paper's server "does not perform on-the-fly compression but sends out
// a pre-computed deflated version of the Microscape HTML page" — hence the
// precompressed variant support. Images are never deflated (already LZW).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "buf/bytes.hpp"
#include "content/microscape.hpp"
#include "http/date.hpp"

namespace hsim::server {

struct Resource {
  std::string path;
  std::string content_type;
  // Each asset is one shared immutable block: every response body, TCP
  // segment and cached copy is a slice of it — serving never copies.
  buf::Bytes data;
  /// Pre-deflated variant (zlib stream) served when the client advertises
  /// "Accept-Encoding: deflate"; empty = none.
  buf::Bytes deflated;
  std::string etag;
  http::UnixSeconds last_modified = http::kSimulationEpoch;
  /// An HTML resource's embedded src= references in document order (the
  /// h2 server's push list); empty for anything else. StaticSite fills it
  /// on add() and update(), so a request never rescans the document.
  std::vector<std::string> image_refs;
};

class StaticSite {
 public:
  void add(Resource resource);
  const Resource* find(const std::string& path) const;
  std::size_t size() const { return resources_.size(); }

  /// Revises a resource in place: new content, fresh ETag, bumped
  /// Last-Modified (models a site update between visits). Returns false if
  /// the path does not exist.
  bool update(const std::string& path, std::vector<std::uint8_t> data,
              http::UnixSeconds modified_at);

  /// Total body bytes across all resources.
  std::size_t total_bytes() const;

  /// Materializes the Microscape test site: "/index.html" plus the 42
  /// images. `precompress_html` attaches the deflated HTML variant.
  static StaticSite from_microscape(const content::MicroscapeSite& site,
                                    bool precompress_html = true);

 private:
  std::map<std::string, Resource> resources_;
};

/// Builds a strong entity tag from content bytes (hash-based, like real
/// servers derive from inode/mtime/size).
std::string make_etag(std::span<const std::uint8_t> data);

}  // namespace hsim::server
