// Framing-layer property tests.
//
// 1. Round-trip invariance: a seeded sequence of frames, encoded onto one
//    wire chain, decodes frame-for-frame identical no matter how the wire is
//    re-sliced on arrival — whole-stream, MSS-sized, random cuts, or one
//    byte at a time (every boundary) — mirroring segmentation_property_test:
//    TCP reassembly boundaries must be invisible to the frame stream.
// 2. Typed payload codecs round-trip exactly.
// 3. A malformed-frame table: every corruption maps onto an *attributed*
//    connection error (never UB — this suite runs under ASan in CI), and a
//    failed decoder stays failed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "h2/frame.hpp"
#include "h2/session.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"

namespace hsim::h2 {
namespace {

buf::Chain chain_of(const std::vector<std::uint8_t>& bytes) {
  buf::Chain c;
  c.append_copy(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  return c;
}

std::string flat(const buf::Chain& c) { return c.to_string(0, c.size()); }

struct FlatFrame {
  FrameType type;
  std::uint8_t flags;
  std::uint32_t stream_id;
  std::string payload;

  bool operator==(const FlatFrame&) const = default;
};

FlatFrame flatten(const Frame& f) {
  return {f.type, f.flags, f.stream_id, flat(f.payload)};
}

// A seeded stream of valid frames covering every type, with the per-type
// length constraints the decoder enforces (RST/WINDOW_UPDATE exactly 4,
// SETTINGS a multiple of 6, GOAWAY >= 8, PUSH_PROMISE >= 4).
std::vector<Frame> make_frames(std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Frame> frames;
  const int count = static_cast<int>(rng.uniform(5, 25));
  for (int i = 0; i < count; ++i) {
    Frame f;
    f.flags = static_cast<std::uint8_t>(rng.next_u32() & 0xFF);
    const int kind = static_cast<int>(rng.uniform(0, 7));
    const std::uint32_t odd_id =
        static_cast<std::uint32_t>(rng.uniform(0, 1000)) * 2 + 1;
    auto random_payload = [&](std::size_t n) {
      std::vector<std::uint8_t> body(n);
      for (auto& b : body) b = static_cast<std::uint8_t>(rng.next_u32());
      return chain_of(body);
    };
    switch (kind) {
      case 0:
        f.type = FrameType::kData;
        f.stream_id = odd_id;
        f.payload = random_payload(static_cast<std::size_t>(
            rng.uniform(0, kDefaultMaxFrameSize + 1)));
        break;
      case 1: {
        f.type = FrameType::kHeaders;
        f.stream_id = odd_id;
        http::Request req;
        req.method = http::Method::kGet;
        req.target = "/img" + std::to_string(i) + ".gif";
        req.headers.add("Host", "example.com");
        f.payload = encode_request_block(req);
        break;
      }
      case 2:
        f.type = FrameType::kRstStream;
        f.stream_id = odd_id;
        f.payload = encode_rst_payload(ErrorCode::kCancel);
        break;
      case 3:
        f.type = FrameType::kSettings;
        f.stream_id = 0;
        f.payload = encode_settings_payload(
            {{kSettingsInitialWindowSize,
              static_cast<std::uint32_t>(rng.uniform(1, 1 << 20))},
             {kSettingsMaxFrameSize, kDefaultMaxFrameSize}});
        break;
      case 4: {
        f.type = FrameType::kPushPromise;
        f.stream_id = odd_id;
        http::Request req;
        req.method = http::Method::kGet;
        req.target = "/pushed.png";
        f.payload = encode_push_promise_payload(odd_id + 1, req);
        break;
      }
      case 5:
        f.type = FrameType::kGoAway;
        f.stream_id = 0;
        f.payload = encode_goaway_payload(
            {odd_id, static_cast<std::uint32_t>(ErrorCode::kNoError)});
        break;
      default:
        f.type = FrameType::kWindowUpdate;
        f.stream_id = rng.uniform(0, 2) == 0 ? 0 : odd_id;
        f.payload = encode_window_update_payload(
            static_cast<std::uint32_t>(rng.uniform(1, 1 << 24)));
        break;
    }
    frames.push_back(std::move(f));
  }
  return frames;
}

std::string encode_wire(const std::vector<Frame>& frames) {
  buf::Chain wire;
  for (const Frame& f : frames) wire.append(encode_frame(f));
  return flat(wire);
}

// Decodes `wire` with segment sizes drawn from `next_size`.
std::vector<FlatFrame> decode_segmented(
    const std::string& wire, const std::function<std::size_t()>& next_size) {
  FrameDecoder decoder;
  std::vector<FlatFrame> out;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const std::size_t n =
        std::min(std::max<std::size_t>(next_size(), 1), wire.size() - pos);
    buf::Chain seg;
    seg.append_copy(std::string_view(wire).substr(pos, n));
    pos += n;
    decoder.feed(std::move(seg));
    while (auto f = decoder.next()) out.push_back(flatten(*f));
  }
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.buffered(), 0u);
  return out;
}

TEST(H2FrameProperty, RoundTripUnderEverySegmentation) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<Frame> frames = make_frames(seed);
    std::vector<FlatFrame> expected;
    for (const Frame& f : frames) expected.push_back(flatten(f));
    const std::string wire = encode_wire(frames);

    // Whole stream in one feed.
    EXPECT_EQ(decode_segmented(wire, [&] { return wire.size(); }), expected)
        << "seed " << seed;
    // One byte at a time: every possible boundary.
    EXPECT_EQ(decode_segmented(wire, [] { return std::size_t{1}; }), expected)
        << "seed " << seed;
    // MSS-sized segments.
    EXPECT_EQ(decode_segmented(wire, [] { return std::size_t{1460}; }),
              expected)
        << "seed " << seed;
    // Random slicing, several draws.
    for (std::uint64_t cut_seed = 100; cut_seed < 103; ++cut_seed) {
      sim::Rng rng(seed * 1000 + cut_seed);
      EXPECT_EQ(decode_segmented(
                    wire,
                    [&] {
                      return static_cast<std::size_t>(rng.uniform(1, 4000));
                    }),
                expected)
          << "seed " << seed << " cut " << cut_seed;
    }
  }
}

TEST(H2FrameProperty, DecodeToleratesManyNodeChains) {
  // Feed a wire built from many 1-byte chain nodes in a single call: the
  // cursor must walk node boundaries, not assume contiguity.
  const std::vector<Frame> frames = make_frames(7);
  std::vector<FlatFrame> expected;
  for (const Frame& f : frames) expected.push_back(flatten(f));
  const std::string wire = encode_wire(frames);

  buf::Chain shredded;
  for (char c : wire) shredded.append_copy(std::string_view(&c, 1));
  FrameDecoder decoder;
  decoder.feed(std::move(shredded));
  std::vector<FlatFrame> out;
  while (auto f = decoder.next()) out.push_back(flatten(*f));
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(out, expected);
}

TEST(H2FrameProperty, TypedPayloadsRoundTrip) {
  const std::vector<Setting> settings = {{kSettingsEnablePush, 0},
                                         {kSettingsInitialWindowSize, 12345},
                                         {kSettingsMaxFrameSize, 16384}};
  const auto parsed = parse_settings_payload(encode_settings_payload(settings));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), settings.size());
  for (std::size_t i = 0; i < settings.size(); ++i) {
    EXPECT_EQ((*parsed)[i].id, settings[i].id);
    EXPECT_EQ((*parsed)[i].value, settings[i].value);
  }

  EXPECT_EQ(parse_window_update_payload(encode_window_update_payload(0x7FFFFF)),
            0x7FFFFFu);
  EXPECT_EQ(parse_rst_payload(encode_rst_payload(ErrorCode::kRefusedStream)),
            static_cast<std::uint32_t>(ErrorCode::kRefusedStream));

  const auto goaway = parse_goaway_payload(
      encode_goaway_payload({77, static_cast<std::uint32_t>(
                                     ErrorCode::kInternalError)}));
  ASSERT_TRUE(goaway.has_value());
  EXPECT_EQ(goaway->last_stream_id, 77u);
  EXPECT_EQ(goaway->error_code,
            static_cast<std::uint32_t>(ErrorCode::kInternalError));

  http::Request req;
  req.method = http::Method::kHead;
  req.target = "/a/b?c=d";
  req.headers.add("Host", "h");
  req.headers.add("If-None-Match", "\"x\"");
  const auto decoded_req = decode_request_block(encode_request_block(req));
  ASSERT_TRUE(decoded_req.has_value());
  EXPECT_EQ(decoded_req->method, http::Method::kHead);
  EXPECT_EQ(decoded_req->target, req.target);
  EXPECT_EQ(decoded_req->headers.get("Host"), "h");
  EXPECT_EQ(decoded_req->headers.get("If-None-Match"), "\"x\"");

  http::Response res;
  res.status = 304;
  res.reason = "Not Modified";
  res.headers.add("ETag", "\"y\"");
  const auto decoded_res = decode_response_block(encode_response_block(res));
  ASSERT_TRUE(decoded_res.has_value());
  EXPECT_EQ(decoded_res->status, 304);
  EXPECT_EQ(decoded_res->headers.get("ETag"), "\"y\"");

  http::Request promised;
  promised.method = http::Method::kGet;
  promised.target = "/p.png";
  const auto pp = parse_push_promise_payload(
      encode_push_promise_payload(44, promised));
  ASSERT_TRUE(pp.has_value());
  EXPECT_EQ(pp->promised_id, 44u);
  EXPECT_EQ(pp->request.target, "/p.png");
}

// ---- Malformed-frame table -------------------------------------------------

std::vector<std::uint8_t> raw_frame(std::uint32_t length, std::uint8_t type,
                                    std::uint8_t flags, std::uint32_t stream,
                                    std::size_t payload_bytes) {
  std::vector<std::uint8_t> wire;
  wire.push_back(static_cast<std::uint8_t>((length >> 16) & 0xFF));
  wire.push_back(static_cast<std::uint8_t>((length >> 8) & 0xFF));
  wire.push_back(static_cast<std::uint8_t>(length & 0xFF));
  wire.push_back(type);
  wire.push_back(flags);
  wire.push_back(static_cast<std::uint8_t>((stream >> 24) & 0x7F));
  wire.push_back(static_cast<std::uint8_t>((stream >> 16) & 0xFF));
  wire.push_back(static_cast<std::uint8_t>((stream >> 8) & 0xFF));
  wire.push_back(static_cast<std::uint8_t>(stream & 0xFF));
  wire.resize(wire.size() + payload_bytes, 0xAB);
  return wire;
}

struct MalformedCase {
  const char* name;
  std::vector<std::uint8_t> wire;
  ErrorCode expected;
};

TEST(H2FrameProperty, MalformedFramesYieldAttributedErrors) {
  const std::vector<MalformedCase> cases = {
      {"length past max_frame_size",
       raw_frame(kDefaultMaxFrameSize + 1, 0x0, 0, 1, 0),
       ErrorCode::kFrameSizeError},
      {"unknown frame type", raw_frame(0, 0x9, 0, 1, 0),
       ErrorCode::kProtocolError},
      {"unknown frame type 0xff", raw_frame(4, 0xFF, 0, 1, 4),
       ErrorCode::kProtocolError},
      {"DATA on stream 0", raw_frame(3, 0x0, 0, 0, 3),
       ErrorCode::kProtocolError},
      {"HEADERS on stream 0", raw_frame(3, 0x1, 0x4, 0, 3),
       ErrorCode::kProtocolError},
      {"SETTINGS on a stream", raw_frame(6, 0x4, 0, 3, 6),
       ErrorCode::kProtocolError},
      {"GOAWAY on a stream", raw_frame(8, 0x7, 0, 5, 8),
       ErrorCode::kProtocolError},
      {"RST_STREAM wrong length", raw_frame(3, 0x3, 0, 1, 3),
       ErrorCode::kFrameSizeError},
      {"WINDOW_UPDATE wrong length", raw_frame(5, 0x8, 0, 1, 5),
       ErrorCode::kFrameSizeError},
      {"SETTINGS length not /6", raw_frame(7, 0x4, 0, 0, 7),
       ErrorCode::kFrameSizeError},
      {"GOAWAY too short", raw_frame(4, 0x7, 0, 0, 4),
       ErrorCode::kFrameSizeError},
      {"PUSH_PROMISE too short", raw_frame(2, 0x5, 0x4, 1, 2),
       ErrorCode::kFrameSizeError},
  };
  for (const MalformedCase& c : cases) {
    // Whole-feed and byte-at-a-time must attribute identically.
    for (const bool byte_wise : {false, true}) {
      FrameDecoder decoder;
      if (byte_wise) {
        for (std::uint8_t b : c.wire) {
          decoder.feed(chain_of({b}));
          (void)decoder.next();
        }
      } else {
        decoder.feed(chain_of(c.wire));
      }
      while (decoder.next()) {
      }
      ASSERT_TRUE(decoder.failed()) << c.name;
      EXPECT_EQ(decoder.error()->code, c.expected) << c.name;
      // Pinned failure: feeding a perfectly valid frame afterwards must not
      // resurrect the decoder.
      decoder.feed(encode_frame(Frame{FrameType::kSettings, 0, 0, {}}));
      EXPECT_FALSE(decoder.next().has_value()) << c.name;
      EXPECT_TRUE(decoder.failed()) << c.name;
    }
  }
}

TEST(H2FrameProperty, WindowOverflowIsConnectionError) {
  // Session-level attribution: a WINDOW_UPDATE lifting the connection send
  // window past 2^31-1 must surface as kFlowControlError and emit GOAWAY.
  sim::EventQueue queue;
  SessionConfig cfg;
  cfg.is_server = true;
  buf::Chain out;
  Session session(cfg, [&](buf::Chain&& bytes) {
    out.append(std::move(bytes));
  });
  std::optional<DecodeError> seen;
  session.on_connection_error = [&](const DecodeError& e) { seen = e; };

  Frame update;
  update.type = FrameType::kWindowUpdate;
  update.stream_id = 0;
  update.payload = encode_window_update_payload(0x7FFFFFFF);
  session.receive(encode_frame(update));

  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->code, ErrorCode::kFlowControlError);
  EXPECT_TRUE(session.failed());
  EXPECT_TRUE(session.goaway_sent());
  EXPECT_EQ(session.stats().conn_errors, 1u);

  // The GOAWAY on the wire carries the same attribution.
  FrameDecoder decoder;
  decoder.feed(std::move(out));
  std::optional<GoAway> goaway;
  while (auto f = decoder.next()) {
    if (f->type == FrameType::kGoAway) {
      goaway = parse_goaway_payload(f->payload);
    }
  }
  ASSERT_TRUE(goaway.has_value());
  EXPECT_EQ(goaway->error_code,
            static_cast<std::uint32_t>(ErrorCode::kFlowControlError));
}

TEST(H2FrameProperty, ZeroWindowIncrementIsProtocolError) {
  sim::EventQueue queue;
  SessionConfig cfg;
  cfg.is_server = true;
  Session session(cfg, [](buf::Chain&&) {});
  std::optional<DecodeError> seen;
  session.on_connection_error = [&](const DecodeError& e) { seen = e; };

  Frame update;
  update.type = FrameType::kWindowUpdate;
  update.stream_id = 0;
  update.payload = encode_window_update_payload(0);
  session.receive(encode_frame(update));

  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->code, ErrorCode::kProtocolError);
}

}  // namespace
}  // namespace hsim::h2
