// Client-side unit tests: header profiles, wire-level request inspection,
// cache behaviour, flush accounting, and browser emulation details.
#include <gtest/gtest.h>

#include <map>

#include "client/cache.hpp"
#include "client/profile.hpp"
#include "h2/frame.hpp"
#include "harness/experiment.hpp"
#include "http/parser.hpp"
#include "server/static_site.hpp"

namespace hsim {
namespace {

TEST(ProfileTest, RobotRequestsAreAboutPaperSize) {
  // "The result is an average request size of around 190 bytes."
  const client::HeaderProfile p = client::robot_profile();
  http::Request req;
  req.target = "/images/img00.gif";
  req.headers.add("Host", "www.microscape.test");
  req.headers.add("User-Agent", p.user_agent);
  for (const auto& [n, v] : p.extra_headers) req.headers.add(n, v);
  const std::size_t size = req.wire_size();
  EXPECT_GE(size, 160u);
  EXPECT_LE(size, 220u);
}

TEST(ProfileTest, BrowserHeadersAreVerbose) {
  const auto measure = [](const client::HeaderProfile& p) {
    http::Request req;
    req.target = "/images/img00.gif";
    req.headers.add("Host", "www.microscape.test");
    req.headers.add("User-Agent", p.user_agent);
    for (const auto& [n, v] : p.extra_headers) req.headers.add(n, v);
    return req.wire_size();
  };
  const std::size_t robot = measure(client::robot_profile());
  const std::size_t netscape = measure(client::netscape_profile());
  const std::size_t msie = measure(client::msie_profile());
  EXPECT_GT(netscape, robot);
  EXPECT_GT(msie, netscape);  // the paper's MSIE sent the most header bytes
}

TEST(CacheTest, StoreFindClear) {
  client::Cache cache;
  EXPECT_EQ(cache.find("/a"), nullptr);
  client::CacheEntry e;
  e.etag = "\"x\"";
  e.body.append(buf::Bytes(std::vector<std::uint8_t>{1, 2, 3}));
  cache.store("/a", e);
  ASSERT_NE(cache.find("/a"), nullptr);
  EXPECT_EQ(cache.find("/a")->etag, "\"x\"");
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheTest, PathsSorted) {
  client::Cache cache;
  cache.store("/b", {});
  cache.store("/a", {});
  cache.store("/c", {});
  const auto paths = cache.paths();
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_TRUE(std::is_sorted(paths.begin(), paths.end()));
}

// Wire-level inspection: capture actual requests the robot emits.
struct WireRig {
  WireRig(client::ClientConfig config)
      : rng(3),
        channel(queue,
                net::ChannelConfig::symmetric(0, sim::milliseconds(5)),
                rng.fork()),
        client_host(queue, 1, "c", rng.fork()),
        server_host(queue, 2, "s", rng.fork()),
        server(server_host,
               server::StaticSite::from_microscape(harness::shared_site()),
               server::apache_config(), rng.fork()),
        robot(client_host, 2, 80, std::move(config)) {
    channel.attach_a(&client_host);
    channel.attach_b(&server_host);
    client_host.attach_uplink(&channel.uplink_from_a());
    server_host.attach_uplink(&channel.uplink_from_b());
    channel.uplink_from_a().set_tap([this](const net::Packet& p) {
      request_bytes.insert(request_bytes.end(), p.payload.begin(),
                           p.payload.end());
    });
    channel.uplink_from_b().set_tap([this](const net::Packet& p) {
      response_bytes.insert(response_bytes.end(), p.payload.begin(),
                            p.payload.end());
    });
    server.start(80);
  }

  std::vector<http::Request> captured_requests() {
    http::RequestParser parser;
    parser.feed({request_bytes.data(), request_bytes.size()});
    std::vector<http::Request> out;
    while (auto r = parser.next()) out.push_back(std::move(*r));
    return out;
  }

  sim::EventQueue queue;
  sim::Rng rng;
  net::Channel channel;
  tcp::Host client_host;
  tcp::Host server_host;
  server::HttpServer server;
  client::Robot robot;
  std::vector<std::uint8_t> request_bytes;
  std::vector<std::uint8_t> response_bytes;
};

TEST(RobotWireTest, FirstVisitSends43GetsInDocumentOrder) {
  WireRig rig(harness::robot_config(client::ProtocolMode::kHttp11Pipelined));
  bool done = false;
  rig.robot.start_first_visit("/index.html", [&] { done = true; });
  rig.queue.run_until(sim::seconds(120));
  ASSERT_TRUE(done);
  const auto requests = rig.captured_requests();
  ASSERT_EQ(requests.size(), 43u);
  EXPECT_EQ(requests[0].target, "/index.html");
  const auto refs =
      content::scan_image_references(harness::shared_site().html);
  for (std::size_t i = 1; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].target, refs[i - 1]);
    EXPECT_EQ(requests[i].method, http::Method::kGet);
    EXPECT_EQ(requests[i].version, http::Version::kHttp11);
  }
}

TEST(RobotWireTest, CompressedModeAdvertisesDeflate) {
  WireRig rig(harness::robot_config(
      client::ProtocolMode::kHttp11PipelinedCompressed));
  bool done = false;
  rig.robot.start_first_visit("/index.html", [&] { done = true; });
  rig.queue.run_until(sim::seconds(120));
  ASSERT_TRUE(done);
  for (const auto& req : rig.captured_requests()) {
    EXPECT_TRUE(req.headers.has_token("Accept-Encoding", "deflate"))
        << req.target;
  }
}

TEST(RobotWireTest, RevalidationSendsIfNoneMatchWithStoredEtag) {
  WireRig rig(harness::robot_config(client::ProtocolMode::kHttp11Pipelined));
  bool done = false;
  rig.robot.start_first_visit("/index.html", [&] { done = true; });
  rig.queue.run_until(sim::seconds(120));
  ASSERT_TRUE(done);
  rig.request_bytes.clear();
  done = false;
  rig.robot.start_revalidation("/index.html", [&] { done = true; });
  rig.queue.run_until(rig.queue.now() + sim::seconds(120));
  ASSERT_TRUE(done);
  const auto requests = rig.captured_requests();
  ASSERT_EQ(requests.size(), 43u);
  for (const auto& req : requests) {
    const auto inm = req.headers.get("If-None-Match");
    ASSERT_TRUE(inm.has_value()) << req.target;
    const client::CacheEntry* entry = rig.robot.cache().find(req.target);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(*inm, entry->etag);
  }
}

TEST(RobotWireTest, DateBasedRevalidationUsesIfModifiedSince) {
  client::ClientConfig config = harness::netscape_client_config();
  WireRig rig(config);
  bool done = false;
  rig.robot.start_first_visit("/index.html", [&] { done = true; });
  rig.queue.run_until(sim::seconds(120));
  ASSERT_TRUE(done);
  rig.request_bytes.clear();
  done = false;
  rig.robot.start_revalidation("/index.html", [&] { done = true; });
  rig.queue.run_until(rig.queue.now() + sim::seconds(120));
  ASSERT_TRUE(done);
  for (const auto& req : rig.captured_requests()) {
    EXPECT_FALSE(req.headers.contains("If-None-Match"));
    EXPECT_TRUE(req.headers.contains("If-Modified-Since")) << req.target;
    EXPECT_EQ(req.version, http::Version::kHttp10);
    EXPECT_TRUE(req.headers.has_token("Connection", "keep-alive"));
  }
}

TEST(RobotWireTest, Http10HeadRevalidationProfile) {
  WireRig rig(harness::robot_config(client::ProtocolMode::kHttp10Parallel));
  bool done = false;
  rig.robot.start_first_visit("/index.html", [&] { done = true; });
  rig.queue.run_until(sim::seconds(120));
  ASSERT_TRUE(done);
  rig.request_bytes.clear();
  done = false;
  rig.robot.start_revalidation("/index.html", [&] { done = true; });
  rig.queue.run_until(rig.queue.now() + sim::seconds(120));
  ASSERT_TRUE(done);
  const auto requests = rig.captured_requests();
  ASSERT_EQ(requests.size(), 43u);
  std::size_t heads = 0, gets = 0;
  for (const auto& req : requests) {
    if (req.method == http::Method::kHead) ++heads;
    if (req.method == http::Method::kGet) ++gets;
  }
  // "one GET (HTML) and 42 HEAD requests (images)"
  EXPECT_EQ(gets, 1u);
  EXPECT_EQ(heads, 42u);
}

TEST(RobotWireTest, FlushAccountingMatchesMechanisms) {
  WireRig rig(harness::robot_config(client::ProtocolMode::kHttp11Pipelined));
  bool done = false;
  rig.robot.start_first_visit("/index.html", [&] { done = true; });
  rig.queue.run_until(sim::seconds(120));
  ASSERT_TRUE(done);
  const client::RobotStats& s = rig.robot.stats();
  EXPECT_GE(s.explicit_flushes, 1u);  // after the HTML request + tail
  EXPECT_GE(s.size_flushes, 3u);      // 42 requests / ~5 per 1024 B buffer
}

// The SETTINGS each side of an h2 connection opens with, as the peer decodes
// them off the wire. The golden h2 traces record only frame lengths, so this
// is what pins the advertised values.
std::map<std::uint16_t, std::uint32_t> first_settings(
    const std::vector<std::uint8_t>& wire, std::size_t skip) {
  buf::Chain bytes;
  bytes.append_copy(std::span(wire).subspan(skip));
  h2::FrameDecoder decoder;
  decoder.feed(std::move(bytes));
  const std::optional<h2::Frame> frame = decoder.next();
  EXPECT_TRUE(frame.has_value());
  if (!frame) return {};
  EXPECT_EQ(frame->type, h2::FrameType::kSettings);
  EXPECT_FALSE(frame->has_flag(h2::kFlagAck));
  const auto settings = h2::parse_settings_payload(frame->payload);
  EXPECT_TRUE(settings.has_value());
  if (!settings) return {};
  std::map<std::uint16_t, std::uint32_t> out;
  for (const h2::Setting& s : *settings) out[s.id] = s.value;
  return out;
}

TEST(RobotWireTest, H2SessionsAdvertiseTheSettingsConstants) {
  WireRig rig(harness::robot_config(client::ProtocolMode::kH2));
  bool done = false;
  rig.robot.start_first_visit("/index.html", [&] { done = true; });
  rig.queue.run_until(sim::seconds(120));
  ASSERT_TRUE(done);

  const std::string_view preface = h2::kClientPreface;
  ASSERT_GE(rig.request_bytes.size(), preface.size());
  EXPECT_EQ(std::string(rig.request_bytes.begin(),
                        rig.request_bytes.begin() +
                            static_cast<std::ptrdiff_t>(preface.size())),
            preface);
  const std::map<std::uint16_t, std::uint32_t> expected = {
      {h2::kSettingsEnablePush, 1},
      {h2::kSettingsMaxConcurrentStreams, 100},
      {h2::kSettingsInitialWindowSize, 65535},
      {h2::kSettingsMaxFrameSize, 16384},
  };
  EXPECT_EQ(first_settings(rig.request_bytes, preface.size()), expected);
  EXPECT_EQ(first_settings(rig.response_bytes, 0), expected);
}

}  // namespace
}  // namespace hsim
