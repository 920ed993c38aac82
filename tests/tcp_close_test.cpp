#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "tcp_test_util.hpp"

namespace hsim {
namespace {

using namespace testutil;
using obs::TlEvent;
using obs::TlKind;
using tcp::ConnectionPtr;
using tcp::State;
using tcp::TcpOptions;

TEST(TcpCloseTest, GracefulCloseBothSides) {
  TestNet net;
  ConnectionPtr server_conn;
  net.server.listen(
      80,
      [&](ConnectionPtr c) {
        server_conn = c;
        c->set_on_peer_fin([raw = c.get()] { raw->shutdown_send(); });
      },
      TcpOptions{});
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, TcpOptions{});
  bool client_closed = false;
  conn->set_on_connected([&] { conn->shutdown_send(); });
  conn->set_on_closed([&] { client_closed = true; });
  net.queue.run_until(sim::seconds(120));
  // The client initiated the close so it passes through TIME_WAIT and then
  // fully closes; the server reaches CLOSED via LAST_ACK.
  EXPECT_TRUE(client_closed);
  EXPECT_EQ(conn->state(), State::kClosed);
  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(server_conn->state(), State::kClosed);
  EXPECT_EQ(net.server.open_connections(), 0u);
  EXPECT_EQ(net.client.open_connections(), 0u);
}

TEST(TcpCloseTest, HalfCloseStillDeliversServerData) {
  // Client shuts down its sending direction; the server must still be able
  // to stream a response back (the HTTP/1.1-correct independent half-close).
  TestNet net;
  const auto response = pattern_bytes(30'000);
  net.server.listen(
      80,
      [&](ConnectionPtr c) {
        c->set_on_peer_fin([&response, raw = c.get()] {
          std::size_t off = 0;
          off += raw->send(std::span<const std::uint8_t>(response.data(),
                                                         response.size()));
          // 30 KB fits the default send buffer; send in one call.
          ASSERT_EQ(off, response.size());
          raw->shutdown_send();
        });
      },
      TcpOptions{});
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, TcpOptions{});
  Collector rx;
  rx.attach(conn);
  conn->set_on_connected([&] {
    conn->send("request");
    conn->shutdown_send();
  });
  net.queue.run_until(sim::seconds(120));
  EXPECT_EQ(rx.data, response);
  EXPECT_TRUE(rx.peer_fin);
}

TEST(TcpCloseTest, FinPiggybacksOnFinalDataSegment) {
  TestNet net;
  ConnectionPtr server_conn;
  net.server.listen(80, [&](ConnectionPtr c) { server_conn = c; },
                    TcpOptions{});
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, TcpOptions{});
  conn->set_on_connected([&] {
    conn->send("final words");
    conn->shutdown_send();
  });
  net.queue.run_until(sim::seconds(1));
  // The data segment should carry FIN; no separate bare-FIN packet.
  bool saw_data_fin = false;
  bool saw_bare_fin = false;
  for (const auto& r : net.trace.records()) {
    if (r.src != kClientAddr) continue;
    if ((r.flags & net::flag::kFin) != 0) {
      if (r.payload_bytes > 0) saw_data_fin = true;
      else saw_bare_fin = true;
    }
  }
  EXPECT_TRUE(saw_data_fin);
  EXPECT_FALSE(saw_bare_fin);
}

TEST(TcpCloseTest, NaiveCloseResetsLatePipelinedData) {
  // The paper's pitfall: the server closes both directions after serving some
  // requests; data already in flight from the client draws an RST, and the
  // client loses responses it had received but not yet read.
  TestNet net(net::ChannelConfig::symmetric(0, sim::milliseconds(50)));
  ConnectionPtr server_conn;
  net.server.listen(
      80,
      [&](ConnectionPtr c) {
        server_conn = c;
        c->set_on_data([raw = c.get()] {
          (void)raw->read_all();
          // Serve "one response" then naively close both directions.
          raw->send("RESPONSE-1");
          raw->close_naive();
        });
      },
      TcpOptions{});
  TcpOptions copts;
  copts.nodelay = true;
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, copts);
  bool client_reset = false;
  std::vector<std::uint8_t> client_read;
  conn->set_on_reset([&] { client_reset = true; });
  conn->set_on_connected([&] { conn->send("REQ-1"); });
  // The client pipelines a second request 60 ms later — after the server has
  // closed, while the first response is still unread in the client buffer.
  net.queue.schedule_at(sim::milliseconds(160), [&] {
    if (conn->state() != State::kClosed) conn->send("REQ-2");
  });
  net.queue.run_until(sim::seconds(10));
  EXPECT_TRUE(client_reset);
  EXPECT_TRUE(conn->was_reset());
  // The buffered response was destroyed by the reset before the app read it.
  EXPECT_EQ(conn->available(), 0u);
}

TEST(TcpCloseTest, GracefulServerCloseDoesNotLoseResponses) {
  // Contrast with the naive close: a server that half-closes (FIN on its send
  // side, keeps receiving) lets the client read everything.
  TestNet net(net::ChannelConfig::symmetric(0, sim::milliseconds(50)));
  net.server.listen(
      80,
      [&](ConnectionPtr c) {
        c->set_on_data([raw = c.get()] {
          (void)raw->read_all();
          raw->send("RESPONSE-1");
          raw->shutdown_send();  // graceful: receive side stays open
        });
      },
      TcpOptions{});
  TcpOptions copts;
  copts.nodelay = true;
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, copts);
  std::string got;
  bool reset = false;
  conn->set_on_reset([&] { reset = true; });
  conn->set_on_data([&] {
    auto b = conn->read_all().to_vector();
    got.append(b.begin(), b.end());
  });
  conn->set_on_connected([&] { conn->send("REQ-1"); });
  net.queue.schedule_at(sim::milliseconds(160), [&] {
    if (conn->state() != State::kClosed) conn->send("REQ-2");
  });
  net.queue.run_until(sim::seconds(10));
  EXPECT_EQ(got, "RESPONSE-1");
  EXPECT_FALSE(reset);
}

TEST(TcpCloseTest, AbortSendsRst) {
  TestNet net;
  ConnectionPtr server_conn;
  bool server_reset = false;
  net.server.listen(
      80,
      [&](ConnectionPtr c) {
        server_conn = c;
        c->set_on_reset([&] { server_reset = true; });
      },
      TcpOptions{});
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, TcpOptions{});
  conn->set_on_connected([&] { conn->abort(); });
  net.queue.run();
  EXPECT_TRUE(server_reset);
  EXPECT_EQ(conn->state(), State::kClosed);
  EXPECT_EQ(net.client.open_connections(), 0u);
  EXPECT_EQ(net.server.open_connections(), 0u);
}

TEST(TcpCloseTest, SimultaneousCloseReachesClosedOnBothEnds) {
  TestNet net(net::ChannelConfig::symmetric(0, sim::milliseconds(40)));
  ConnectionPtr server_conn;
  net.server.listen(80, [&](ConnectionPtr c) { server_conn = c; },
                    TcpOptions{});
  TcpOptions opts;
  opts.time_wait_duration = sim::seconds(1);
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, opts);
  net.queue.run();  // establish
  ASSERT_NE(server_conn, nullptr);
  // Both ends close at the same instant: FINs cross in flight.
  conn->shutdown_send();
  server_conn->shutdown_send();
  net.queue.run_until(sim::seconds(120));
  EXPECT_EQ(conn->state(), State::kClosed);
  EXPECT_EQ(server_conn->state(), State::kClosed);
}

TEST(TcpCloseTest, DataAfterFinIsRejectedBySendApi) {
  TestNet net;
  net.server.listen(80, [](ConnectionPtr) {}, TcpOptions{});
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, TcpOptions{});
  conn->set_on_connected([&] {
    conn->shutdown_send();
    EXPECT_EQ(conn->send("too late"), 0u);
  });
  net.queue.run_until(sim::seconds(60));
}

// ---------------------------------------------------------------------------
// Per-connection timeline coverage of the close handshake. With a timeline-
// enabled registry installed, each connection records every state change,
// FIN/ACK segment and RST with its simulated timestamp; these tests assert
// the full handshake shows up, in order, for all four close orderings.
// ---------------------------------------------------------------------------

/// Index of the first state transition to `to`, or npos.
std::size_t index_of_transition(const std::vector<TlEvent>& events, State to) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == TlKind::kStateChange &&
        static_cast<State>(events[i].b) == to) {
      return i;
    }
  }
  return static_cast<std::size_t>(-1);
}

/// Index of the first sent/received segment carrying `flag`, or npos.
std::size_t index_of_segment(const std::vector<TlEvent>& events, TlKind kind,
                             std::uint8_t flag) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == kind && (events[i].flags & flag) != 0) return i;
  }
  return static_cast<std::size_t>(-1);
}

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

TEST(TcpCloseTest, TimelineRecordsClientInitiatedClose) {
  obs::Registry reg;
  reg.enable_timelines();
  obs::ScopedRegistry scoped(&reg);
  TestNet net;
  net.server.listen(
      80,
      [&](ConnectionPtr c) {
        c->set_on_peer_fin([raw = c.get()] { raw->shutdown_send(); });
      },
      TcpOptions{});
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, TcpOptions{});
  conn->set_on_connected([&] { conn->shutdown_send(); });
  net.queue.run_until(sim::seconds(120));
  ASSERT_EQ(conn->state(), State::kClosed);

  const obs::ConnTimeline* client_tl = reg.find_timeline("1:10000>2:80");
  const obs::ConnTimeline* server_tl = reg.find_timeline("2:80>1:10000");
  ASSERT_NE(client_tl, nullptr);
  ASSERT_NE(server_tl, nullptr);

  // Initiator walks FIN_WAIT_1 -> FIN_WAIT_2 -> TIME_WAIT -> CLOSED, with its
  // FIN on the wire before the transition out of FIN_WAIT_1 completes.
  const auto ce = client_tl->events();
  const std::size_t fin_sent = index_of_segment(ce, TlKind::kSegSent, net::flag::kFin);
  const std::size_t fw1 = index_of_transition(ce, State::kFinWait1);
  const std::size_t fw2 = index_of_transition(ce, State::kFinWait2);
  const std::size_t tw = index_of_transition(ce, State::kTimeWait);
  const std::size_t closed = index_of_transition(ce, State::kClosed);
  const std::size_t peer_fin =
      index_of_segment(ce, TlKind::kSegRecvd, net::flag::kFin);
  ASSERT_NE(fin_sent, kNpos);
  ASSERT_NE(fw1, kNpos);
  ASSERT_NE(fw2, kNpos);
  ASSERT_NE(tw, kNpos);
  ASSERT_NE(closed, kNpos);
  ASSERT_NE(peer_fin, kNpos);
  EXPECT_LT(fw1, fw2);
  EXPECT_LT(fw2, peer_fin);  // FIN_WAIT_2 entered on the ACK, before peer FIN
  EXPECT_LT(peer_fin, tw);   // peer's FIN drives the TIME_WAIT entry
  EXPECT_LT(tw, closed);
  EXPECT_EQ(reg.counter_value("tcp.time_wait_entered"), 1u);

  // Responder walks CLOSE_WAIT -> LAST_ACK -> CLOSED, FIN received first.
  const auto se = server_tl->events();
  const std::size_t s_peer_fin =
      index_of_segment(se, TlKind::kSegRecvd, net::flag::kFin);
  const std::size_t cw = index_of_transition(se, State::kCloseWait);
  const std::size_t la = index_of_transition(se, State::kLastAck);
  const std::size_t s_closed = index_of_transition(se, State::kClosed);
  ASSERT_NE(s_peer_fin, kNpos);
  ASSERT_NE(cw, kNpos);
  ASSERT_NE(la, kNpos);
  ASSERT_NE(s_closed, kNpos);
  EXPECT_LT(s_peer_fin, la);
  EXPECT_LT(cw, la);
  EXPECT_LT(la, s_closed);
}

TEST(TcpCloseTest, TimelineRecordsServerInitiatedClose) {
  obs::Registry reg;
  reg.enable_timelines();
  obs::ScopedRegistry scoped(&reg);
  TestNet net;
  ConnectionPtr server_conn;
  net.server.listen(80, [&](ConnectionPtr c) { server_conn = c; },
                    TcpOptions{});
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, TcpOptions{});
  conn->set_on_peer_fin([&] { conn->shutdown_send(); });
  net.queue.run_until(sim::milliseconds(200));
  ASSERT_NE(server_conn, nullptr);
  server_conn->shutdown_send();
  net.queue.run_until(sim::seconds(120));

  // Mirror image of the client-initiated case: the server is the one that
  // passes through FIN_WAIT and TIME_WAIT.
  const obs::ConnTimeline* server_tl = reg.find_timeline("2:80>1:10000");
  const obs::ConnTimeline* client_tl = reg.find_timeline("1:10000>2:80");
  ASSERT_NE(server_tl, nullptr);
  ASSERT_NE(client_tl, nullptr);
  const auto se = server_tl->events();
  EXPECT_NE(index_of_transition(se, State::kFinWait1), kNpos);
  EXPECT_NE(index_of_transition(se, State::kTimeWait), kNpos);
  const auto ce = client_tl->events();
  const std::size_t cw = index_of_transition(ce, State::kCloseWait);
  const std::size_t la = index_of_transition(ce, State::kLastAck);
  ASSERT_NE(cw, kNpos);
  ASSERT_NE(la, kNpos);
  EXPECT_LT(cw, la);
  EXPECT_EQ(reg.counter_value("tcp.time_wait_entered"), 1u);
}

TEST(TcpCloseTest, TimelineRecordsSimultaneousClose) {
  obs::Registry reg;
  reg.enable_timelines();
  obs::ScopedRegistry scoped(&reg);
  TestNet net(net::ChannelConfig::symmetric(0, sim::milliseconds(40)));
  ConnectionPtr server_conn;
  net.server.listen(80, [&](ConnectionPtr c) { server_conn = c; },
                    TcpOptions{});
  TcpOptions opts;
  opts.time_wait_duration = sim::seconds(1);
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, opts);
  net.queue.run();
  ASSERT_NE(server_conn, nullptr);
  conn->shutdown_send();
  server_conn->shutdown_send();
  net.queue.run_until(sim::seconds(120));

  // FINs crossed in flight: both ends see the peer FIN while in FIN_WAIT_1,
  // so both pass through CLOSING (never FIN_WAIT_2) and both enter TIME_WAIT.
  for (const char* needle : {"1:10000>2:80", "2:80>1:10000"}) {
    const obs::ConnTimeline* tl = reg.find_timeline(needle);
    ASSERT_NE(tl, nullptr) << needle;
    const auto ev = tl->events();
    const std::size_t fw1 = index_of_transition(ev, State::kFinWait1);
    const std::size_t closing = index_of_transition(ev, State::kClosing);
    const std::size_t tw = index_of_transition(ev, State::kTimeWait);
    ASSERT_NE(fw1, kNpos) << needle;
    ASSERT_NE(closing, kNpos) << needle;
    ASSERT_NE(tw, kNpos) << needle;
    EXPECT_LT(fw1, closing) << needle;
    EXPECT_LT(closing, tw) << needle;
    EXPECT_EQ(index_of_transition(ev, State::kFinWait2), kNpos) << needle;
  }
  EXPECT_EQ(reg.counter_value("tcp.time_wait_entered"), 2u);
}

TEST(TcpCloseTest, TimelineAttributesDeliberateRst) {
  obs::Registry reg;
  reg.enable_timelines();
  obs::ScopedRegistry scoped(&reg);
  TestNet net;
  net.server.listen(80, [](ConnectionPtr) {}, TcpOptions{});
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, TcpOptions{});
  conn->set_on_connected([&] { conn->abort(); });
  net.queue.run();

  // The aborting side records RST-SENT with the deliberate (non-failure)
  // attribution; the victim records RST-RECV and no FIN exchange at all.
  const obs::ConnTimeline* client_tl = reg.find_timeline("1:10000>2:80");
  ASSERT_NE(client_tl, nullptr);
  const auto ce = client_tl->events();
  ASSERT_NE(index_of_transition(ce, State::kClosed), kNpos);
  bool saw_rst_sent = false;
  for (const TlEvent& e : ce) {
    if (e.kind == TlKind::kRstSent) {
      saw_rst_sent = true;
      EXPECT_EQ(e.flags, 0u) << "abort() is a deliberate RST, not a failure";
    }
    EXPECT_FALSE(e.kind == TlKind::kSegSent &&
                 (e.flags & net::flag::kFin) != 0)
        << "no FIN should accompany an abort";
  }
  EXPECT_TRUE(saw_rst_sent);

  const obs::ConnTimeline* server_tl = reg.find_timeline("2:80>1:10000");
  ASSERT_NE(server_tl, nullptr);
  const auto se = server_tl->events();
  bool saw_rst_recvd = false;
  for (const TlEvent& e : se) saw_rst_recvd |= e.kind == TlKind::kRstRecvd;
  EXPECT_TRUE(saw_rst_recvd);
  EXPECT_EQ(reg.counter_value("tcp.rst_sent"), 1u);
  EXPECT_EQ(reg.counter_value("tcp.rst_received"), 1u);
}

TEST(TcpCloseTest, TimelineAttributesFailurePathRst) {
  obs::Registry reg;
  reg.enable_timelines();
  obs::ScopedRegistry scoped(&reg);
  // Link goes down for good shortly after establishment: data retransmits
  // exhaust and the sender gives up with a failure-path RST.
  net::ChannelConfig cfg =
      net::ChannelConfig::symmetric(0, sim::milliseconds(10));
  cfg.a_to_b.outages.push_back({sim::milliseconds(100), sim::seconds(3600)});
  cfg.b_to_a.outages.push_back({sim::milliseconds(100), sim::seconds(3600)});
  TestNet net(cfg);
  net.server.listen(80, [](ConnectionPtr) {}, TcpOptions{});
  TcpOptions opts;
  opts.max_data_retransmits = 3;
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, opts);
  bool failed = false;
  conn->set_on_failed([&] { failed = true; });
  net.queue.schedule_at(sim::milliseconds(200), [&] {
    if (conn->state() == State::kEstablished) conn->send("doomed");
  });
  net.queue.run_until(sim::seconds(600));
  ASSERT_TRUE(failed);

  const obs::ConnTimeline* client_tl = reg.find_timeline("1:10000>2:80");
  ASSERT_NE(client_tl, nullptr);
  bool saw_failure_rst = false;
  std::size_t rto_fires = 0;
  for (const TlEvent& e : client_tl->events()) {
    if (e.kind == TlKind::kRstSent) {
      EXPECT_EQ(e.flags, 1u) << "give-up RST must carry the failure flag";
      saw_failure_rst = true;
    }
    if (e.kind == TlKind::kRtoFire) ++rto_fires;
  }
  EXPECT_TRUE(saw_failure_rst);
  EXPECT_GE(rto_fires, 3u);
  EXPECT_EQ(reg.counter_value("tcp.rto_fires"), rto_fires);
}

TEST(TcpCloseTest, ConnectionOutlivingItsHostFlushesOnceWhileHostLives) {
  // Connections share their host's metric handles. One the application
  // still holds when the host goes has its loss forensics flushed by the
  // host, so its own teardown later touches no freed handles.
  obs::Registry reg;
  obs::ScopedRegistry scoped(&reg);
  sim::EventQueue queue;
  ConnectionPtr kept;
  {
    // An outage makes the client's first data segment time out, so its
    // forensics have something to flush.
    net::ChannelConfig cfg =
        net::ChannelConfig::symmetric(0, sim::milliseconds(10));
    cfg.a_to_b.outages.push_back({sim::milliseconds(100), sim::seconds(2)});
    net::Channel channel(queue, cfg, sim::Rng(1));
    tcp::Host client(queue, kClientAddr, "client", sim::Rng(2));
    tcp::Host server(queue, kServerAddr, "server", sim::Rng(3));
    channel.attach_a(&client);
    channel.attach_b(&server);
    client.attach_uplink(&channel.uplink_from_a());
    server.attach_uplink(&channel.uplink_from_b());
    server.listen(80, [](ConnectionPtr) {}, TcpOptions{});
    kept = client.connect(kServerAddr, 80, TcpOptions{});
    queue.schedule_at(sim::milliseconds(200), [&] { kept->send("late"); });
    queue.run_until(sim::seconds(10));
    ASSERT_EQ(kept->state(), State::kEstablished);
    EXPECT_EQ(reg.counter_value("tcp.cc.first_loss.timeout"), 0u);
  }
  const std::string flushed = reg.snapshot().dump_text();
  EXPECT_EQ(reg.counter_value("tcp.connections_opened"), 2u);
  EXPECT_EQ(reg.counter_value("tcp.cc.first_loss.timeout"), 1u);
  kept.reset();
  EXPECT_EQ(reg.snapshot().dump_text(), flushed);
}

TEST(TcpCloseTest, TimeWaitExpiresAndReleasesConnection) {
  TestNet net;
  TcpOptions opts;
  opts.time_wait_duration = sim::seconds(5);
  ConnectionPtr server_conn;
  net.server.listen(
      80,
      [&](ConnectionPtr c) {
        server_conn = c;
        c->set_on_peer_fin([raw = c.get()] { raw->shutdown_send(); });
      },
      TcpOptions{});
  ConnectionPtr conn = net.client.connect(kServerAddr, 80, opts);
  conn->set_on_connected([&] { conn->shutdown_send(); });
  net.queue.run_until(sim::seconds(2));
  EXPECT_EQ(conn->state(), State::kTimeWait);
  EXPECT_EQ(net.client.open_connections(), 1u);
  net.queue.run_until(sim::seconds(20));
  EXPECT_EQ(conn->state(), State::kClosed);
  EXPECT_EQ(net.client.open_connections(), 0u);
}

}  // namespace
}  // namespace hsim
