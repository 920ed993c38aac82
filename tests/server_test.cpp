// Unit tests for the HTTP server over a raw TCP connection (no Robot):
// conditional requests, HEAD, ranges, content coding, connection semantics.
#include <gtest/gtest.h>

#include "deflate/deflate.hpp"
#include "deflate/inflate.hpp"
#include "http/parser.hpp"
#include "server/server.hpp"
#include "server/static_site.hpp"
#include "tcp_test_util.hpp"

namespace hsim {
namespace {

using namespace testutil;
using server::Resource;
using server::StaticSite;

StaticSite make_site() {
  StaticSite site;
  Resource page;
  page.path = "/page.html";
  page.content_type = "text/html";
  const std::string body =
      "<html><body>hello hello hello hello hello</body></html>";
  page.data = buf::Bytes(std::string_view(body));
  page.etag = server::make_etag(page.data.span());
  page.last_modified = http::kSimulationEpoch;
  page.deflated = buf::Bytes(deflate::zlib_compress(page.data.span()));
  site.add(page);

  Resource image;
  image.path = "/img.gif";
  image.content_type = "image/gif";
  image.data = buf::Bytes(4000, 0x42);
  image.etag = server::make_etag(image.data.span());
  image.last_modified = http::kSimulationEpoch;
  site.add(image);
  return site;
}

/// Drives one or more raw HTTP requests through a fresh client connection
/// and collects the responses.
class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture()
      : net_(net::ChannelConfig::symmetric(0, sim::milliseconds(2))),
        server_(net_.server, make_site(), config(), sim::Rng(5)) {
    server_.start(80);
  }

  static server::ServerConfig config() {
    server::ServerConfig c = server::apache_config();
    c.per_request_cpu = sim::microseconds(100);
    c.per_connection_cpu = sim::microseconds(100);
    return c;
  }

  /// Sends raw request text; returns all responses parsed with the given
  /// request-method contexts.
  std::vector<http::Response> exchange(
      const std::string& wire,
      const std::vector<http::Method>& methods,
      sim::Time settle = sim::seconds(30)) {
    tcp::TcpOptions opts;
    opts.nodelay = true;
    auto conn = net_.client.connect(kServerAddr, 80, opts);
    http::ResponseParser parser;
    for (const http::Method m : methods) parser.push_request_context(m);
    std::vector<http::Response> responses;
    conn->set_on_data([&] {
      const auto bytes = conn->read_all().to_vector();
      parser.feed({bytes.data(), bytes.size()});
      while (auto r = parser.next()) responses.push_back(std::move(*r));
    });
    conn->set_on_connected([&] { conn->send(wire); });
    net_.queue.run_until(net_.queue.now() + settle);
    conn_ = conn;
    return responses;
  }

  TestNet net_;
  server::HttpServer server_;
  tcp::ConnectionPtr conn_;
};

TEST_F(ServerFixture, SimpleGet) {
  const auto responses =
      exchange("GET /page.html HTTP/1.1\r\nHost: x\r\n\r\n",
               {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].headers.get("Content-Type"), "text/html");
  EXPECT_TRUE(responses[0].headers.contains("ETag"));
  EXPECT_TRUE(responses[0].headers.contains("Last-Modified"));
  EXPECT_TRUE(responses[0].headers.contains("Date"));
  EXPECT_EQ(responses[0].body.size(), 55u);
}

TEST_F(ServerFixture, NotFound) {
  const auto responses = exchange("GET /missing HTTP/1.1\r\nHost: x\r\n\r\n",
                                  {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 404);
  EXPECT_EQ(server_.stats().responses_404, 1u);
}

TEST_F(ServerFixture, HeadOmitsBodyButKeepsLength) {
  const auto responses = exchange("HEAD /img.gif HTTP/1.1\r\nHost: x\r\n\r\n",
                                  {http::Method::kHead});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].headers.get("Content-Length"), "4000");
  EXPECT_TRUE(responses[0].body.empty());
}

TEST_F(ServerFixture, ConditionalGetMatchingEtagReturns304) {
  const std::string etag = make_site().find("/img.gif")->etag;
  const auto responses = exchange(
      "GET /img.gif HTTP/1.1\r\nHost: x\r\nIf-None-Match: " + etag +
          "\r\n\r\n",
      {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 304);
  EXPECT_TRUE(responses[0].body.empty());
  EXPECT_EQ(responses[0].headers.get("ETag"), etag);
}

TEST_F(ServerFixture, ConditionalGetStaleEtagReturnsFull) {
  const auto responses = exchange(
      "GET /img.gif HTTP/1.1\r\nHost: x\r\nIf-None-Match: \"old\"\r\n\r\n",
      {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body.size(), 4000u);
}

TEST_F(ServerFixture, IfModifiedSinceHonoured) {
  const std::string fresh = http::format_http_date(http::kSimulationEpoch);
  auto responses = exchange(
      "GET /img.gif HTTP/1.1\r\nHost: x\r\nIf-Modified-Since: " + fresh +
          "\r\n\r\n",
      {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 304);

  const std::string stale =
      http::format_http_date(http::kSimulationEpoch - 86400);
  responses = exchange(
      "GET /img.gif HTTP/1.1\r\nHost: x\r\nIf-Modified-Since: " + stale +
          "\r\n\r\n",
      {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
}

TEST_F(ServerFixture, RangeRequestReturnsPartial) {
  const auto responses = exchange(
      "GET /img.gif HTTP/1.1\r\nHost: x\r\nRange: bytes=100-199\r\n\r\n",
      {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 206);
  EXPECT_EQ(responses[0].body.size(), 100u);
  EXPECT_EQ(responses[0].headers.get("Content-Range"), "bytes 100-199/4000");
  EXPECT_EQ(server_.stats().responses_206, 1u);
}

TEST_F(ServerFixture, SuffixAndOpenEndedRanges) {
  auto responses = exchange(
      "GET /img.gif HTTP/1.1\r\nHost: x\r\nRange: bytes=3900-\r\n\r\n",
      {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 206);
  EXPECT_EQ(responses[0].body.size(), 100u);

  responses = exchange(
      "GET /img.gif HTTP/1.1\r\nHost: x\r\nRange: bytes=-50\r\n\r\n",
      {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 206);
  EXPECT_EQ(responses[0].body.size(), 50u);
  EXPECT_EQ(responses[0].headers.get("Content-Range"), "bytes 3950-3999/4000");
}

TEST_F(ServerFixture, MalformedRangeFallsBackToFull) {
  const auto responses = exchange(
      "GET /img.gif HTTP/1.1\r\nHost: x\r\nRange: bytes=9999-88\r\n\r\n",
      {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body.size(), 4000u);
}

TEST_F(ServerFixture, IfRangeMismatchSendsFullEntity) {
  const auto responses = exchange(
      "GET /img.gif HTTP/1.1\r\nHost: x\r\nRange: bytes=0-99\r\n"
      "If-Range: \"stale\"\r\n\r\n",
      {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].body.size(), 4000u);
}

TEST_F(ServerFixture, DeflateVariantServedOnAcceptEncoding) {
  const auto responses = exchange(
      "GET /page.html HTTP/1.1\r\nHost: x\r\nAccept-Encoding: deflate\r\n\r\n",
      {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].headers.get("Content-Encoding"), "deflate");
  const auto body = responses[0].body.to_vector();
  const auto inflated = deflate::zlib_decompress(body, 1 << 16);
  ASSERT_TRUE(inflated.ok);
  EXPECT_EQ(inflated.data.size(), 55u);
  EXPECT_EQ(server_.stats().deflated_responses, 1u);
}

TEST_F(ServerFixture, NoDeflateWithoutAcceptEncoding) {
  const auto responses = exchange(
      "GET /page.html HTTP/1.1\r\nHost: x\r\n\r\n", {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].headers.contains("Content-Encoding"));
}

TEST_F(ServerFixture, ImagesHaveNoDeflateVariant) {
  const auto responses = exchange(
      "GET /img.gif HTTP/1.1\r\nHost: x\r\nAccept-Encoding: deflate\r\n\r\n",
      {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].headers.contains("Content-Encoding"));
}

TEST_F(ServerFixture, PipelinedRequestsAnsweredInOrder) {
  const auto responses = exchange(
      "GET /page.html HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /img.gif HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /missing HTTP/1.1\r\nHost: x\r\n\r\n",
      {http::Method::kGet, http::Method::kGet, http::Method::kGet});
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].headers.get("Content-Type"), "text/html");
  EXPECT_EQ(responses[1].headers.get("Content-Type"), "image/gif");
  EXPECT_EQ(responses[2].status, 404);
}

TEST_F(ServerFixture, MalformedRequestGets400AndClose) {
  const auto responses = exchange("NONSENSE-LINE\r\n\r\n",
                                  {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 400);
  EXPECT_TRUE(conn_->peer_closed() ||
              conn_->state() == tcp::State::kClosed);
}

TEST_F(ServerFixture, Http10RequestGetsConnectionClose) {
  const auto responses = exchange("GET /page.html HTTP/1.0\r\n\r\n",
                                  {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[0].version, http::Version::kHttp10);
  EXPECT_TRUE(responses[0].headers.has_token("Connection", "close"));
  EXPECT_TRUE(conn_->peer_closed() || conn_->state() == tcp::State::kClosed);
}

TEST_F(ServerFixture, Http10KeepAliveHonoured) {
  const auto responses = exchange(
      "GET /page.html HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
      "GET /img.gif HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
      {http::Method::kGet, http::Method::kGet});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].headers.has_token("Connection", "keep-alive"));
  EXPECT_EQ(responses[1].status, 200);
}

TEST_F(ServerFixture, ConnectionCloseRequestHonoured) {
  const auto responses = exchange(
      "GET /page.html HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
      {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(conn_->peer_closed() || conn_->state() == tcp::State::kClosed);
}

TEST_F(ServerFixture, IdleTimeoutClosesConnection) {
  server::ServerConfig c = config();
  // Re-listen with a short idle timeout on another port.
  c.idle_timeout = sim::seconds(2);
  server::HttpServer quick(net_.server, make_site(), c, sim::Rng(6));
  quick.start(81);
  auto conn = net_.client.connect(kServerAddr, 81, tcp::TcpOptions{});
  bool peer_closed = false;
  conn->set_on_peer_fin([&] { peer_closed = true; });
  net_.queue.run_until(net_.queue.now() + sim::seconds(30));
  EXPECT_TRUE(peer_closed);
}

TEST_F(ServerFixture, SiteUpdateChangesEtagAndContent) {
  ASSERT_TRUE(server_.site().update(
      "/img.gif", std::vector<std::uint8_t>(2000, 0x55),
      http::kSimulationEpoch + 1000));
  const auto responses = exchange("GET /img.gif HTTP/1.1\r\nHost: x\r\n\r\n",
                                  {http::Method::kGet});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body.size(), 2000u);
  EXPECT_FALSE(server_.site().update("/nope", {}, 0));
}

TEST_F(ServerFixture, VerboseHeadersAddBytes) {
  server::ServerConfig c = config();
  c.verbose_headers = true;
  server::HttpServer verbose(net_.server, make_site(), c, sim::Rng(7));
  verbose.start(82);
  tcp::TcpOptions opts;
  opts.nodelay = true;
  auto conn = net_.client.connect(kServerAddr, 82, opts);
  http::ResponseParser parser;
  parser.push_request_context(http::Method::kGet);
  std::vector<http::Response> responses;
  conn->set_on_data([&] {
    const auto bytes = conn->read_all().to_vector();
    parser.feed({bytes.data(), bytes.size()});
    while (auto r = parser.next()) responses.push_back(std::move(*r));
  });
  conn->set_on_connected(
      [&] { conn->send("GET /img.gif HTTP/1.1\r\nHost: x\r\n\r\n"); });
  net_.queue.run_until(net_.queue.now() + sim::seconds(10));
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].headers.contains("Accept-Ranges"));
  EXPECT_TRUE(responses[0].headers.contains("MIME-Version"));
}

}  // namespace
}  // namespace hsim
