// Stream lifetime in the h2 session: a stream closed in both directions is
// forgotten (erased from the stream map), and a forgotten id still behaves
// as a closed stream, not as an idle one (RFC 7540 §5.1):
//
//   - a late stream WINDOW_UPDATE is ignored;
//   - DATA fails with "DATA on closed stream", HEADERS with "duplicate
//     HEADERS";
//   - stream_closed() is true;
// while an id that was never opened keeps the idle-stream errors, and a
// reset stream stays in the map so in-flight DATA still returns connection
// window.
//
// Each test drives one real Session with hand-scripted peer frames and
// decodes what it writes back.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "h2/frame.hpp"
#include "h2/session.hpp"

namespace hsim::h2 {
namespace {

http::Request get_request(const std::string& target) {
  http::Request req;
  req.method = http::Method::kGet;
  req.target = target;
  req.headers.add("Host", "test");
  return req;
}

http::Response ok_response(std::size_t body_bytes) {
  http::Response res;
  res.status = 200;
  res.reason = "OK";
  res.headers.add("Content-Length", std::to_string(body_bytes));
  res.body.append_copy(std::string(body_bytes, 'b'));
  return res;
}

buf::Chain frame(FrameType type, std::uint32_t id, std::uint8_t flags,
                 buf::Chain payload) {
  Frame f;
  f.type = type;
  f.stream_id = id;
  f.flags = flags;
  f.payload = std::move(payload);
  return encode_frame(f);
}

buf::Chain data_frame(std::uint32_t id, std::size_t n, bool fin) {
  buf::Chain payload;
  payload.append_copy(std::string(n, 'd'));
  return frame(FrameType::kData, id, fin ? kFlagEndStream : 0,
               std::move(payload));
}

buf::Chain window_update(std::uint32_t id, std::uint32_t inc) {
  return frame(FrameType::kWindowUpdate, id, 0,
               encode_window_update_payload(inc));
}

buf::Chain response_headers(std::uint32_t id, bool fin) {
  http::Response res;
  res.status = 200;
  res.reason = "OK";
  return frame(FrameType::kHeaders, id,
               kFlagEndHeaders | (fin ? kFlagEndStream : 0),
               encode_response_block(res));
}

/// A client session whose output frames are decoded into `sent`.
struct Client {
  std::vector<Frame> sent;
  FrameDecoder decoder;
  std::size_t preface_left = kClientPreface.size();
  std::vector<std::uint32_t> completed;
  Session session;

  Client()
      : session(SessionConfig{}, [this](buf::Chain&& bytes) {
          const std::size_t skip = std::min(preface_left, bytes.size());
          bytes.pop_front(skip);
          preface_left -= skip;
          decoder.feed(std::move(bytes));
          while (auto f = decoder.next()) sent.push_back(std::move(*f));
        }) {
    session.on_response = [this](std::uint32_t id, http::Response) {
      completed.push_back(id);
    };
    session.on_push_response = session.on_response;
  }

  /// Opens stream 1 and completes it with a one-DATA response.
  std::uint32_t complete_one_request() {
    const std::uint32_t id = session.submit_request(get_request("/a.gif"));
    buf::Chain bytes = response_headers(id, false);
    bytes.append(data_frame(id, 100, /*fin=*/true));
    session.receive(std::move(bytes));
    return id;
  }

  std::uint64_t connection_window_returned() const {
    std::uint64_t n = 0;
    for (const Frame& f : sent) {
      if (f.type == FrameType::kWindowUpdate && f.stream_id == 0) {
        n += *parse_window_update_payload(f.payload);
      }
    }
    return n;
  }
};

TEST(H2Session, CompletedStreamIsForgottenButStaysClosed) {
  Client c;
  const std::uint32_t id = c.complete_one_request();
  ASSERT_EQ(c.completed, std::vector<std::uint32_t>{id});
  EXPECT_FALSE(c.session.failed());
  // Erased from the map: no per-stream state is left to report ...
  EXPECT_FALSE(c.session.stream_send_window(id).has_value());
  EXPECT_EQ(c.session.open_stream_count(), 0u);
  // ... yet the id reads as closed, not as idle.
  EXPECT_TRUE(c.session.stream_closed(id));
  EXPECT_FALSE(c.session.stream_was_reset(id));
  // Never-opened ids of either parity are not closed.
  EXPECT_FALSE(c.session.stream_closed(id + 2));
  EXPECT_FALSE(c.session.stream_closed(2));
}

TEST(H2Session, LateWindowUpdateOnForgottenStreamIsIgnored) {
  // Server side: the response drains in one DATA frame inside receive(), so
  // the stream is forgotten when receive() returns.
  std::vector<Frame> sent;
  FrameDecoder decoder;
  Session server(SessionConfig{true, true}, [&](buf::Chain&& bytes) {
    decoder.feed(std::move(bytes));
    while (auto f = decoder.next()) sent.push_back(std::move(*f));
  });
  server.on_request = [&](std::uint32_t id, http::Request) {
    server.submit_response(id, ok_response(1000));
  };
  server.receive(frame(FrameType::kHeaders, 1,
                       kFlagEndHeaders | kFlagEndStream,
                       encode_request_block(get_request("/index.html"))));
  ASSERT_FALSE(server.failed());
  ASSERT_FALSE(sent.empty());
  EXPECT_EQ(sent.back().type, FrameType::kData);
  EXPECT_TRUE(sent.back().has_flag(kFlagEndStream));
  EXPECT_FALSE(server.stream_send_window(1).has_value());
  EXPECT_TRUE(server.stream_closed(1));

  // The client's WINDOW_UPDATE crossed our last DATA on the wire.
  const std::size_t frames_before = sent.size();
  server.receive(window_update(1, 5000));
  EXPECT_FALSE(server.failed());
  EXPECT_EQ(sent.size(), frames_before);  // no GOAWAY, nothing sent

  // A never-opened client id is still an idle-stream error.
  server.receive(window_update(3, 5000));
  ASSERT_TRUE(server.failed());
  EXPECT_EQ(server.error()->message, "WINDOW_UPDATE on idle stream 3");
}

TEST(H2Session, DataOnForgottenStreamIsClosedStreamError) {
  Client c;
  const std::uint32_t id = c.complete_one_request();
  ASSERT_FALSE(c.session.stream_send_window(id).has_value());
  c.session.receive(data_frame(id, 10, /*fin=*/false));
  ASSERT_TRUE(c.session.failed());
  EXPECT_EQ(c.session.error()->code, ErrorCode::kProtocolError);
  EXPECT_EQ(c.session.error()->message, "DATA on closed stream");
}

TEST(H2Session, HeadersOnForgottenStreamIsDuplicate) {
  Client c;
  const std::uint32_t id = c.complete_one_request();
  c.session.receive(response_headers(id, /*fin=*/true));
  ASSERT_TRUE(c.session.failed());
  EXPECT_EQ(c.session.error()->message, "duplicate HEADERS");
  EXPECT_EQ(c.completed.size(), 1u);
}

TEST(H2Session, NeverOpenedIdsKeepIdleStreamErrors) {
  {
    Client c;
    c.complete_one_request();  // stream 1; 3 was never opened
    c.session.receive(data_frame(3, 10, /*fin=*/false));
    ASSERT_TRUE(c.session.failed());
    EXPECT_EQ(c.session.error()->message, "DATA on idle stream 3");
  }
  {
    Client c;
    c.complete_one_request();
    c.session.receive(window_update(5, 100));
    ASSERT_TRUE(c.session.failed());
    EXPECT_EQ(c.session.error()->message, "WINDOW_UPDATE on idle stream 5");
  }
  {
    // Peer parity: no push was ever promised, so stream 2 is idle.
    Client c;
    c.complete_one_request();
    c.session.receive(data_frame(2, 10, /*fin=*/false));
    ASSERT_TRUE(c.session.failed());
    EXPECT_EQ(c.session.error()->message, "DATA on idle stream 2");
  }
  {
    Client c;
    c.complete_one_request();
    c.session.receive(response_headers(7, /*fin=*/true));
    ASSERT_TRUE(c.session.failed());
    EXPECT_EQ(c.session.error()->message, "HEADERS on idle stream 7");
  }
}

TEST(H2Session, RejectedPushAbsorbsInFlightDataAndReturnsWindow) {
  Client c;
  c.session.on_push_promise = [](std::uint32_t, const http::Request&) {
    return false;  // RST_STREAM(CANCEL)
  };
  const std::uint32_t root = c.session.submit_request(get_request("/"));
  c.session.receive(frame(FrameType::kPushPromise, root, kFlagEndHeaders,
                          encode_push_promise_payload(
                              2, get_request("/pushed.gif"))));
  ASSERT_FALSE(c.session.failed());
  ASSERT_TRUE(c.session.stream_was_reset(2));
  bool rst_sent = false;
  for (const Frame& f : c.sent) {
    rst_sent |= f.type == FrameType::kRstStream && f.stream_id == 2;
  }
  EXPECT_TRUE(rst_sent);

  // The server had already sent the push before it saw our RST: its HEADERS
  // and 64 KB of DATA arrive anyway, then the root completes.
  buf::Chain bytes = response_headers(2, false);
  for (int i = 0; i < 4; ++i) bytes.append(data_frame(2, 16384, i == 3));
  bytes.append(response_headers(root, false));
  bytes.append(data_frame(root, 100, /*fin=*/true));
  c.session.receive(std::move(bytes));
  ASSERT_FALSE(c.session.failed());
  EXPECT_EQ(c.completed, std::vector<std::uint32_t>{root});

  // Every discarded push byte came back as connection window (an update
  // fires each time half the initial window is consumed), or the peer's
  // fourth frame would have overrun the 65535-byte connection window.
  EXPECT_EQ(c.connection_window_returned(), 4u * 16384u);
  EXPECT_EQ(c.session.stats().data_bytes_received, 100u);

  // The reset stream stays in the map (its send window is still reported);
  // the completed root is forgotten.
  EXPECT_TRUE(c.session.stream_send_window(2).has_value());
  EXPECT_TRUE(c.session.stream_was_reset(2));
  EXPECT_FALSE(c.session.stream_send_window(root).has_value());
  EXPECT_TRUE(c.session.stream_closed(root));

  // More in-flight DATA for the reset push is still absorbed silently.
  c.session.receive(data_frame(2, 1000, /*fin=*/false));
  EXPECT_FALSE(c.session.failed());
}

}  // namespace
}  // namespace hsim::h2
