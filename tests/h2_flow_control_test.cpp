// Flow-control and scheduler invariants for the h2 session layer:
//
//   - send windows (stream and connection) never go negative, at any
//     observable point;
//   - the sum of DATA bytes emitted never exceeds the window the receiver
//     granted, checked at EVERY emitted frame, not just at the end;
//   - stalled streams resume in deterministic priority order (strict weight
//     first, round-robin by id within a weight) when windows reopen;
//   - bytes are conserved end to end across pushed and reset streams: every
//     body byte a live stream carries arrives exactly once, and a rejected
//     push's bytes are discarded without corrupting neighbouring streams.
//
// Tests drive a real server Session with hand-scripted client frames (exact
// window control), and a client+server Session pair over an in-memory duplex
// relay (push, reset, auto window replenishment).
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "h2/frame.hpp"
#include "h2/session.hpp"
#include "sim/event_queue.hpp"

namespace hsim::h2 {
namespace {

buf::Chain chain_of_string(const std::string& s) {
  buf::Chain c;
  c.append_copy(std::string_view(s));
  return c;
}

std::string flat(const buf::Chain& c) { return c.to_string(0, c.size()); }

std::string patterned_body(std::size_t n, char salt) {
  std::string body(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    body[i] = static_cast<char>((i * 31 + salt) & 0xFF);
  }
  return body;
}

Frame headers_frame(std::uint32_t id, const http::Request& req) {
  Frame f;
  f.type = FrameType::kHeaders;
  f.stream_id = id;
  f.flags = kFlagEndHeaders | kFlagEndStream;
  f.payload = encode_request_block(req);
  return f;
}

Frame window_update_frame(std::uint32_t id, std::uint32_t increment) {
  Frame f;
  f.type = FrameType::kWindowUpdate;
  f.stream_id = id;
  f.payload = encode_window_update_payload(increment);
  return f;
}

Frame settings_frame(const std::vector<Setting>& settings) {
  Frame f;
  f.type = FrameType::kSettings;
  f.payload = encode_settings_payload(settings);
  return f;
}

http::Request get_request(const std::string& target) {
  http::Request req;
  req.method = http::Method::kGet;
  req.target = target;
  req.headers.add("Host", "test");
  return req;
}

// Decodes one direction of the wire and enforces the grant invariant on
// every DATA frame as it appears.
struct GrantMonitor {
  FrameDecoder decoder;
  std::vector<Frame> frames;  // everything seen, in emission order
  std::vector<std::pair<std::uint32_t, std::size_t>> data_log;  // (id, bytes)
  std::map<std::uint32_t, std::string> data_bytes;  // reassembled per stream
  std::map<std::uint32_t, bool> end_stream_seen;

  std::int64_t conn_granted = kDefaultInitialWindow;
  std::int64_t conn_sent = 0;
  std::map<std::uint32_t, std::int64_t> stream_granted;
  std::map<std::uint32_t, std::int64_t> stream_sent;
  std::int64_t default_stream_grant = kDefaultInitialWindow;

  void grant_conn(std::uint32_t inc) { conn_granted += inc; }
  void grant_stream(std::uint32_t id, std::uint32_t inc) {
    touch(id);
    stream_granted[id] += inc;
  }
  void touch(std::uint32_t id) {
    if (stream_granted.find(id) == stream_granted.end()) {
      stream_granted[id] = default_stream_grant;
    }
  }

  void feed(const buf::Chain& bytes) {
    decoder.feed(bytes);
    while (auto f = decoder.next()) {
      if (f->type == FrameType::kData) {
        const std::uint32_t id = f->stream_id;
        touch(id);
        const std::size_t n = f->payload.size();
        conn_sent += static_cast<std::int64_t>(n);
        stream_sent[id] += static_cast<std::int64_t>(n);
        // The grant invariant, at every frame.
        ASSERT_LE(conn_sent, conn_granted) << "stream " << id;
        ASSERT_LE(stream_sent[id], stream_granted[id]) << "stream " << id;
        data_log.emplace_back(id, n);
        data_bytes[id] += flat(f->payload);
        if (f->has_flag(kFlagEndStream)) end_stream_seen[id] = true;
      }
      frames.push_back(std::move(*f));
    }
    ASSERT_FALSE(decoder.failed());
  }
};

void expect_windows_nonnegative(const Session& s,
                                const std::vector<std::uint32_t>& ids) {
  EXPECT_GE(s.conn_send_window(), 0);
  for (std::uint32_t id : ids) {
    const auto w = s.stream_send_window(id);
    if (w.has_value()) {
      EXPECT_GE(*w, 0) << "stream " << id;
    }
  }
}

TEST(H2FlowControl, StreamWindowsGateDataAndResumeRoundRobin) {
  sim::EventQueue queue;
  SessionConfig cfg;
  cfg.is_server = true;
  GrantMonitor monitor;
  const std::vector<std::uint32_t> ids = {1, 3, 5};
  Session server(cfg, [&](buf::Chain&& bytes) {
    monitor.feed(bytes);
    expect_windows_nonnegative(server, ids);
  });
  std::map<std::uint32_t, std::string> bodies;
  server.on_request = [&](std::uint32_t id, http::Request) {
    http::Response res;
    res.status = 200;
    res.reason = "OK";
    const std::string body = patterned_body(5000, static_cast<char>(id));
    bodies[id] = body;
    res.headers.add("Content-Length", std::to_string(body.size()));
    res.body = chain_of_string(body);
    server.submit_response(id, res);
  };

  // Client grants 2000 per stream, a 1000-byte max frame, and leaves the
  // connection window at the ample 65535 default.
  monitor.default_stream_grant = 2000;
  server.receive(encode_frame(settings_frame(
      {{kSettingsInitialWindowSize, 2000}, {kSettingsMaxFrameSize, 1000}})));
  for (std::uint32_t id : ids) {
    server.receive(encode_frame(headers_frame(id, get_request(
        "/r" + std::to_string(id) + ".gif"))));
  }

  // Requests arrive (and are answered) sequentially, so each stream drains
  // exactly its 2000-byte grant — two 1000-byte frames — on arrival, then
  // stalls: 1,1,3,3,5,5. Round-robin among simultaneously eligible streams
  // is exercised by the connection-window test below.
  ASSERT_EQ(monitor.data_log.size(), 6u);
  const std::vector<std::uint32_t> first_round = {1, 1, 3, 3, 5, 5};
  for (std::size_t i = 0; i < first_round.size(); ++i) {
    EXPECT_EQ(monitor.data_log[i].first, first_round[i]) << "pick " << i;
    EXPECT_EQ(monitor.data_log[i].second, 1000u) << "pick " << i;
  }
  // All three streams are now stalled with 3000 bytes queued each.
  EXPECT_EQ(server.queued_send_bytes(), 9000u);
  EXPECT_GE(server.stats().flow_stalls, 3u);
  for (std::uint32_t id : ids) {
    ASSERT_TRUE(server.stream_send_window(id).has_value());
    EXPECT_EQ(*server.stream_send_window(id), 0);
  }

  // Reopen stream 5 fully: only stream 5 resumes, draining its remaining
  // 3000 bytes and closing.
  monitor.grant_stream(5, 3000);
  server.receive(encode_frame(window_update_frame(5, 3000)));
  ASSERT_EQ(monitor.data_log.size(), 9u);
  for (std::size_t i = 6; i < 9; ++i) {
    EXPECT_EQ(monitor.data_log[i].first, 5u);
  }
  EXPECT_TRUE(monitor.end_stream_seen[5]);

  // A partial grant on stream 1 moves exactly that many bytes.
  monitor.grant_stream(1, 500);
  server.receive(encode_frame(window_update_frame(1, 500)));
  ASSERT_EQ(monitor.data_log.size(), 10u);
  EXPECT_EQ(monitor.data_log[9].first, 1u);
  EXPECT_EQ(monitor.data_log[9].second, 500u);

  // Release everything; both remaining streams drain to completion.
  monitor.grant_stream(1, 10000);
  monitor.grant_stream(3, 10000);
  buf::Chain both;
  both.append(encode_frame(window_update_frame(1, 10000)));
  both.append(encode_frame(window_update_frame(3, 10000)));
  server.receive(std::move(both));

  for (std::uint32_t id : ids) {
    EXPECT_EQ(monitor.data_bytes[id], bodies[id]) << "stream " << id;
    EXPECT_TRUE(monitor.end_stream_seen[id]) << "stream " << id;
    EXPECT_TRUE(server.stream_closed(id)) << "stream " << id;
  }
  EXPECT_EQ(server.queued_send_bytes(), 0u);
  EXPECT_EQ(server.stats().data_bytes_sent, 15000u);
}

TEST(H2FlowControl, ConnectionWindowGatesAggregateAndWeightsOrderResume) {
  sim::EventQueue queue;
  SessionConfig cfg;
  cfg.is_server = true;
  GrantMonitor monitor;
  const std::vector<std::uint32_t> ids = {1, 2, 4};
  Session server(cfg, [&](buf::Chain&& bytes) {
    monitor.feed(bytes);
    expect_windows_nonnegative(server, ids);
  });

  // Per-stream windows huge; the 65535 connection window is the bottleneck.
  monitor.default_stream_grant = 1 << 20;
  server.receive(encode_frame(settings_frame(
      {{kSettingsInitialWindowSize, 1 << 20},
       {kSettingsMaxFrameSize, 4096},
       {kSettingsEnablePush, 1}})));

  // One request stream (weight 16) and two pushes promised off it (weight
  // 8), all submitted inside the same on_request — every stream is queued
  // and eligible before the first DATA frame is picked, so the scheduler's
  // weight order and within-weight round-robin are both observable.
  std::map<std::uint32_t, std::string> bodies;
  server.on_request = [&](std::uint32_t id, http::Request) {
    auto respond = [&](const std::string& body) {
      http::Response res;
      res.status = 200;
      res.reason = "OK";
      res.headers.add("Content-Length", std::to_string(body.size()));
      res.body = chain_of_string(body);
      return res;
    };
    const auto p2 = server.promise_push(id, get_request("/p2.png"));
    const auto p4 = server.promise_push(id, get_request("/p4.png"));
    ASSERT_TRUE(p2.has_value());
    ASSERT_TRUE(p4.has_value());
    EXPECT_EQ(*p2, 2u);
    EXPECT_EQ(*p4, 4u);
    bodies[id] = patterned_body(40000, 'r');
    bodies[*p2] = patterned_body(30000, 'a');
    bodies[*p4] = patterned_body(30000, 'b');
    server.submit_response(id, respond(bodies[id]));
    server.push_response(*p2, respond(bodies[*p2]));
    server.push_response(*p4, respond(bodies[*p4]));
  };
  server.receive(encode_frame(headers_frame(1, get_request("/index.html"))));

  // The connection window is exhausted to the byte and nothing is owed
  // beyond it: 100000 queued, 65535 on the wire, both pushes stalled.
  EXPECT_EQ(monitor.conn_sent, 65535);
  EXPECT_EQ(server.conn_send_window(), 0);
  EXPECT_EQ(server.queued_send_bytes(), 100000u - 65535u);
  EXPECT_GE(server.stats().flow_stalls, 2u);

  // Weight order: every byte of the weight-16 request stream went before
  // any weight-8 push byte, even though all three were eligible together.
  bool seen_push_data = false;
  for (const auto& [id, n] : monitor.data_log) {
    if (id % 2 == 0) seen_push_data = true;
    else EXPECT_FALSE(seen_push_data)
        << "request-stream DATA after push DATA while both were eligible";
  }
  EXPECT_TRUE(monitor.end_stream_seen[1]);

  // Reopen the connection window in steps and let everything drain; the
  // invariant checker in the monitor validates every intermediate frame.
  // (Before the stall, push 2 ran alone — push 4's response had not been
  // submitted yet when 2 first pumped — so round-robin is only observable
  // from the resume point on, where both pushes are queued together.)
  const std::size_t drain_start = monitor.data_log.size();
  while (server.queued_send_bytes() > 0) {
    monitor.grant_conn(20000);
    server.receive(encode_frame(window_update_frame(0, 20000)));
  }

  // Round-robin within weight 8 across the resumed region: while both
  // pushes still had queued bytes, no push got two consecutive picks.
  std::map<std::uint32_t, std::size_t> remaining = {
      {2, bodies[2].size()}, {4, bodies[4].size()}};
  for (std::size_t i = 0; i < drain_start; ++i) {
    const auto& [id, n] = monitor.data_log[i];
    if (id % 2 == 0) remaining[id] -= n;
  }
  std::uint32_t prev = 0;
  for (std::size_t i = drain_start; i < monitor.data_log.size(); ++i) {
    const auto& [id, n] = monitor.data_log[i];
    if (id % 2 != 0) continue;
    if (remaining[2] > 0 && remaining[4] > 0 && prev != 0) {
      EXPECT_NE(id, prev) << "same push stream picked twice in a row while "
                             "its sibling had queued data";
    }
    remaining[id] -= n;
    prev = id;
  }
  for (std::uint32_t id : ids) {
    EXPECT_EQ(monitor.data_bytes[id], bodies[id]) << "stream " << id;
    EXPECT_TRUE(monitor.end_stream_seen[id]) << "stream " << id;
  }
  EXPECT_EQ(server.stats().data_bytes_sent, 100000u);
}

// ---- Duplex: two real sessions, push accept/reject, byte conservation ----

struct Relay {
  Session* client = nullptr;
  Session* server = nullptr;
  buf::Chain to_server;  // client -> server bytes awaiting delivery
  buf::Chain to_client;
  GrantMonitor s2c;  // server-emitted frames (the direction carrying bodies)
  FrameDecoder c2s{kDefaultMaxFrameSize};  // client grants feed the monitor
  std::size_t preface_remaining = kClientPreface.size();
  bool draining = false;

  // The client replenishes windows with WINDOW_UPDATE and widens them with
  // SETTINGS; register those grants in the s2c monitor *before* the server
  // learns of them so its very next DATA frame is judged against the grant.
  void register_grants(const buf::Chain& bytes) {
    c2s.feed(bytes);
    while (auto f = c2s.next()) {
      if (f->type == FrameType::kWindowUpdate) {
        const auto inc = parse_window_update_payload(f->payload);
        if (!inc.has_value()) continue;
        if (f->stream_id == 0) s2c.grant_conn(*inc);
        else s2c.grant_stream(f->stream_id, *inc);
      } else if (f->type == FrameType::kSettings && !f->has_flag(kFlagAck)) {
        const auto settings = parse_settings_payload(f->payload);
        if (!settings.has_value()) continue;
        for (const Setting& s : *settings) {
          if (s.id == kSettingsInitialWindowSize) {
            s2c.default_stream_grant = s.value;
          }
        }
      }
    }
  }

  void drain() {
    if (draining || client == nullptr || server == nullptr) return;
    draining = true;
    while (!to_server.empty() || !to_client.empty()) {
      if (!to_server.empty()) {
        if (preface_remaining > 0) {
          const std::size_t n = std::min(preface_remaining, to_server.size());
          to_server.pop_front(n);
          preface_remaining -= n;
          continue;
        }
        buf::Chain bytes = to_server.split_front(to_server.size());
        register_grants(bytes);
        server->receive(std::move(bytes));
      } else {
        buf::Chain bytes = to_client.split_front(to_client.size());
        s2c.feed(bytes);
        client->receive(std::move(bytes));
      }
    }
    draining = false;
  }
};

TEST(H2FlowControl, DuplexPushAcceptRejectConservesBytes) {
  sim::EventQueue queue;
  Relay relay;
  // Stream windows default (65535) on both sides; bodies exceed them so the
  // transfer only completes if auto WINDOW_UPDATE replenishment works.
  SessionConfig client_cfg;
  client_cfg.is_server = false;
  SessionConfig server_cfg;
  server_cfg.is_server = true;
  Session client(client_cfg, [&](buf::Chain&& bytes) {
    relay.to_server.append(std::move(bytes));
    relay.drain();
  });
  Session server(server_cfg, [&](buf::Chain&& bytes) {
    relay.to_client.append(std::move(bytes));
    relay.drain();
  });
  relay.client = &client;
  relay.server = &server;

  std::map<std::uint32_t, std::string> bodies;
  server.on_request = [&](std::uint32_t id, http::Request req) {
    auto respond = [&](const std::string& body) {
      http::Response res;
      res.status = 200;
      res.reason = "OK";
      res.headers.add("Content-Length", std::to_string(body.size()));
      res.body = chain_of_string(body);
      return res;
    };
    ASSERT_EQ(req.target, "/index.html");
    const auto accepted = server.promise_push(id, get_request("/keep.png"));
    const auto rejected = server.promise_push(id, get_request("/drop.png"));
    ASSERT_TRUE(accepted.has_value());
    ASSERT_TRUE(rejected.has_value());
    bodies[id] = patterned_body(100000, 'r');          // stalls: > 65535
    bodies[*accepted] = patterned_body(30000, 'k');
    bodies[*rejected] = patterned_body(30000, 'd');
    server.submit_response(id, respond(bodies[id]));
    server.push_response(*accepted, respond(bodies[*accepted]));
    server.push_response(*rejected, respond(bodies[*rejected]));
  };

  std::vector<std::uint32_t> promised;
  client.on_push_promise = [&](std::uint32_t id, const http::Request& req) {
    promised.push_back(id);
    return req.target == "/keep.png";
  };
  std::vector<std::pair<std::uint32_t, std::string>> completed;
  client.on_response = [&](std::uint32_t id, http::Response res) {
    completed.emplace_back(id, flat(res.body));
  };
  client.on_push_response = [&](std::uint32_t id, http::Response res) {
    completed.emplace_back(id, flat(res.body));
  };

  const std::uint32_t root = client.submit_request(get_request("/index.html"));
  relay.drain();

  // Both promises were seen; the accepted push and the root completed with
  // exactly the bodies the server authored. (The smaller push can *finish*
  // before the larger root — weight only decides who sends while both have
  // window; the weight-order guarantee is pinned by the scripted test.)
  ASSERT_EQ(promised.size(), 2u);
  ASSERT_EQ(completed.size(), 2u);
  for (const auto& [id, body] : completed) {
    EXPECT_EQ(body, bodies[id]) << "stream " << id;
  }
  // The very first DATA byte on the wire belongs to the weight-16 root.
  ASSERT_FALSE(relay.s2c.data_log.empty());
  EXPECT_EQ(relay.s2c.data_log[0].first, root);
  EXPECT_TRUE(client.stream_was_reset(promised[1]));
  EXPECT_EQ(client.stats().pushes_accepted, 1u);
  EXPECT_EQ(client.stats().pushes_reset, 1u);

  // The stall actually happened (bodies exceeded every initial window) and
  // replenishment resolved it.
  EXPECT_GE(server.stats().flow_stalls, 1u);
  EXPECT_EQ(server.queued_send_bytes(), 0u);

  // Byte conservation: every DATA byte the server emitted crossed the relay
  // exactly once (monitor), and the client accounted every one of them —
  // delivered on live streams or discarded on the reset push, never both.
  std::size_t monitored = 0;
  for (const auto& [id, n] : relay.s2c.data_log) monitored += n;
  EXPECT_EQ(server.stats().data_bytes_sent, monitored);
  EXPECT_EQ(server.stats().data_bytes_sent,
            client.stats().data_bytes_received);
  std::size_t delivered = 0;
  for (const auto& [id, body] : completed) delivered += body.size();
  const std::size_t discarded =
      relay.s2c.data_bytes.count(promised[1]) != 0
          ? relay.s2c.data_bytes[promised[1]].size()
          : 0;
  EXPECT_EQ(delivered + discarded, monitored);

  // Windows ended non-negative everywhere.
  expect_windows_nonnegative(server, {root, promised[0], promised[1]});
  expect_windows_nonnegative(client, {root, promised[0], promised[1]});
}

TEST(H2FlowControl, RevalidationRoundTripNoBodies) {
  // 304-style exchanges carry no DATA at all: windows must be untouched.
  sim::EventQueue queue;
  Relay relay;
  SessionConfig client_cfg;
  SessionConfig server_cfg;
  server_cfg.is_server = true;
  Session client(client_cfg, [&](buf::Chain&& bytes) {
    relay.to_server.append(std::move(bytes));
    relay.drain();
  });
  Session server(server_cfg, [&](buf::Chain&& bytes) {
    relay.to_client.append(std::move(bytes));
    relay.drain();
  });
  relay.client = &client;
  relay.server = &server;
  server.on_request = [&](std::uint32_t id, http::Request) {
    http::Response res;
    res.status = 304;
    res.reason = "Not Modified";
    res.headers.add("ETag", "\"v1\"");
    server.submit_response(id, res);
  };
  std::vector<int> statuses;
  client.on_response = [&](std::uint32_t, http::Response res) {
    statuses.push_back(res.status);
  };
  for (int i = 0; i < 5; ++i) {
    http::Request req = get_request("/img" + std::to_string(i) + ".gif");
    req.headers.add("If-None-Match", "\"v1\"");
    client.submit_request(req);
  }
  relay.drain();
  EXPECT_EQ(statuses, std::vector<int>(5, 304));
  EXPECT_EQ(server.conn_send_window(), kDefaultInitialWindow);
  EXPECT_EQ(client.conn_send_window(), kDefaultInitialWindow);
  EXPECT_EQ(server.stats().data_bytes_sent, 0u);
  EXPECT_EQ(relay.s2c.data_log.size(), 0u);
}

}  // namespace
}  // namespace hsim::h2
