#include "replays.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "content/gif.hpp"
#include "content/microscape.hpp"
#include "deflate/deflate.hpp"
#include "h2/frame.hpp"
#include "harness/experiment.hpp"
#include "harness/network.hpp"
#include "harness/parallel.hpp"
#include "http/parser.hpp"
#include "net/channel.hpp"
#include "net/link.hpp"
#include "netem/profile.hpp"
#include "sim/event_queue.hpp"
#include "sim/shard.hpp"
#include "tcp/host.hpp"
#include "topo/queue_disc.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hsim;

constexpr std::size_t kMss = 1460;
constexpr int kSamples = 3;  // each replay reports the median of three

double count(const ReplayInputs& in, const char* name) {
  const auto it = in.counts.find(name);
  return it == in.counts.end() ? 0.0 : it->second;
}

std::size_t capped(double n, std::size_t cap) {
  return static_cast<std::size_t>(std::clamp(n, 0.0, static_cast<double>(cap)));
}

/// Median of kSamples timings of `once()`, each recorded as a span; `once`
/// returns the number of operations it timed, the result is seconds per op.
double per_op(Spans& spans, const std::string& name, std::size_t parent,
              const std::function<double()>& once) {
  std::vector<double> samples;
  for (int i = 0; i < kSamples; ++i) {
    double ops = 0;
    const double s = timed_span(spans, name, parent, [&] { ops = once(); });
    samples.push_back(ops > 0 ? s / ops : 0.0);
  }
  return median(samples);
}

struct SiteObject {
  std::string path;
  buf::Bytes body;
};

/// Every object the site serves, HTML first, as shared slices (no copies).
std::vector<SiteObject> site_objects(const content::MicroscapeSite& site) {
  std::vector<SiteObject> objects = {
      {"/index.html", buf::Bytes(std::string_view(site.html))}};
  for (const content::SiteImage& img : site.images) {
    objects.push_back(
        {img.path, buf::Bytes(std::span<const std::uint8_t>(img.gif_bytes))});
  }
  return objects;
}

buf::Chain site_bytes(const content::MicroscapeSite& site) {
  buf::Chain chain;
  for (SiteObject& o : site_objects(site)) chain.append(std::move(o.body));
  return chain;
}

// ---- sim --------------------------------------------------------------------

/// Hold model: `depth` pending events; each step pops the earliest and its
/// callback schedules a successor, so the queue stays at `depth`.
double queue_event(std::size_t depth, std::size_t ops) {
  sim::EventQueue q;
  q.reserve(depth + 1);
  sim::Rng rng(7);
  std::function<void()> again;
  again = [&] { q.schedule_in(rng.uniform(1, 1'000'000), again); };
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule_at(rng.uniform(1, 1'000'000), again);
  }
  for (std::size_t i = 0; i < ops; ++i) q.step();
  return static_cast<double>(ops);
}

/// Timer::arm over an armed timer (cancel + schedule), at `depth` pending.
double timer_rearm(std::size_t depth, std::size_t ops) {
  sim::EventQueue q;
  q.reserve(depth + 1);
  sim::Rng rng(11);
  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule_at(rng.uniform(1, 1'000'000'000), [] {});
  }
  sim::Timer timer(q);
  for (std::size_t i = 0; i < ops; ++i) {
    timer.arm(rng.uniform(1, 1'000'000), [] {});
  }
  return static_cast<double>(ops);
}

/// One ShardedEngine run of `rounds` rounds; every shard in `busy` carries
/// `per_round` self-rescheduling events per lookahead window.
double shard_rounds(std::size_t shards, unsigned threads, sim::Time lookahead,
                    std::size_t busy, std::size_t per_round,
                    std::size_t rounds) {
  sim::ShardedEngine engine({shards, threads, lookahead});
  const sim::Time gap =
      std::max<sim::Time>(1, lookahead / static_cast<sim::Time>(per_round));
  std::vector<std::function<void()>> chains(busy);
  for (std::size_t s = 0; s < busy; ++s) {
    sim::EventQueue& q = engine.queue(s);
    chains[s] = [&q, &chain = chains[s], gap] { q.schedule_in(gap, chain); };
    q.schedule_at(gap, chains[s]);
  }
  engine.run_until(lookahead * static_cast<sim::Time>(rounds));
  return static_cast<double>(rounds);
}

// ---- net / netem ------------------------------------------------------------

struct CountingSink : net::PacketSink {
  std::size_t delivered = 0;
  void deliver(net::Packet) override { ++delivered; }
};

/// Transmits `packets` packets of `payload` bytes through one Link (64 at a
/// time, each burst run to delivery).
double link_transmit(const net::LinkConfig& cfg, std::size_t payload,
                     std::size_t packets) {
  sim::EventQueue q;
  net::LinkConfig c = cfg;
  c.queue_limit_packets = 128;
  net::Link link(q, c, sim::Rng(3));
  CountingSink sink;
  link.set_sink(&sink);
  const buf::Bytes body(payload, 0x5a);
  std::size_t sent = 0;
  while (sent < packets) {
    const std::size_t burst = std::min<std::size_t>(64, packets - sent);
    for (std::size_t i = 0; i < burst; ++i) {
      net::Packet p;
      p.src = 1;
      p.dst = 2;
      p.payload = body;
      link.transmit(std::move(p));
    }
    q.run();
    sent += burst;
  }
  if (sink.delivered != packets) {
    throw std::runtime_error("link replay lost packets");
  }
  return static_cast<double>(packets);
}

// ---- topo -------------------------------------------------------------------

double qdisc_ops(std::size_t depth, std::size_t ops) {
  topo::DropTail q("replay", topo::DropTailConfig{depth + 1, 0});
  net::Packet p;
  p.payload = buf::Bytes(kMss, 0x11);
  sim::Time t = 0;
  for (std::size_t i = 0; i < depth; ++i) q.enqueue(p, t);
  for (std::size_t i = 0; i < ops; ++i) {
    q.enqueue(p, ++t);
    q.dequeue(t);
  }
  return static_cast<double>(ops);
}

// ---- tcp --------------------------------------------------------------------

constexpr net::IpAddr kClient = 1;
constexpr net::IpAddr kServer = 2;

struct Pair {
  Pair()
      : channel(queue, harness::lan_profile().channel_config(), sim::Rng(5)),
        client(queue, kClient, "client", sim::Rng(6)),
        server(queue, kServer, "server", sim::Rng(7)) {
    channel.attach_a(&client);
    channel.attach_b(&server);
    client.attach_uplink(&channel.uplink_from_a());
    server.attach_uplink(&channel.uplink_from_b());
  }
  sim::EventQueue queue;
  net::Channel channel;
  tcp::Host client;
  tcp::Host server;
};

/// One connection carrying `data`; returns segments sent by both ends.
double bulk_transfer(const buf::Chain& data) {
  Pair net;
  std::uint64_t received = 0;
  tcp::ConnectionPtr accepted;
  net.server.listen(
      80,
      [&](tcp::ConnectionPtr c) {
        accepted = c;
        c->set_on_data([&received, raw = c.get()] {
          received += raw->read_all().size();
        });
        c->set_on_peer_fin([raw = c.get()] { raw->shutdown_send(); });
      },
      tcp::TcpOptions{});
  tcp::ConnectionPtr conn = net.client.connect(kServer, 80, tcp::TcpOptions{});
  buf::Chain rest = data;
  const auto pump = [&] {
    while (!rest.empty()) {
      const std::size_t n = conn->send(rest);
      if (n == 0) return;
      rest.pop_front(n);
    }
    conn->shutdown_send();
  };
  conn->set_on_connected(pump);
  conn->set_on_send_space(pump);
  net.queue.run();
  if (received != data.size()) {
    throw std::runtime_error("tcp bulk replay delivered a short stream");
  }
  return static_cast<double>(conn->stats().segments_sent +
                             accepted->stats().segments_sent);
}

/// `n` connect/accept/close cycles, at most 512 in flight.
double handshakes(std::size_t n) {
  Pair net;
  net.server.listen(
      80,
      [](tcp::ConnectionPtr c) {
        c->set_on_peer_fin([raw = c.get()] { raw->shutdown_send(); });
      },
      tcp::TcpOptions{});
  std::size_t started = 0;
  while (started < n) {
    const std::size_t batch = std::min<std::size_t>(512, n - started);
    for (std::size_t i = 0; i < batch; ++i) {
      tcp::ConnectionPtr c = net.client.connect(kServer, 80, tcp::TcpOptions{});
      c->set_on_connected([raw = c.get()] { raw->shutdown_send(); });
    }
    started += batch;
    net.queue.run();
  }
  if (net.client.total_connections_created() != n ||
      net.client.open_connections() != 0 || net.server.open_connections() != 0) {
    throw std::runtime_error("handshake replay leaked connections");
  }
  return static_cast<double>(n);
}

// ---- http -------------------------------------------------------------------

template <typename Parser, typename Drain>
void feed_in_segments(Parser& parser, const std::vector<std::uint8_t>& stream,
                      Drain&& drain) {
  for (std::size_t off = 0; off < stream.size(); off += kMss) {
    const std::size_t n = std::min(kMss, stream.size() - off);
    parser.feed(std::span<const std::uint8_t>(stream.data() + off, n));
    drain();
  }
}

double parse_requests(const content::MicroscapeSite& site, std::size_t total) {
  std::vector<std::uint8_t> stream;
  for (const SiteObject& o : site_objects(site)) {
    http::Request req;
    req.target = o.path;
    req.headers.add("Host", "www.microscape.test");
    req.headers.add("User-Agent", "libwww-robot/5.1");
    req.headers.add("Accept", "*/*");
    const std::vector<std::uint8_t> wire = req.serialize();
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  std::size_t parsed = 0;
  while (parsed < total) {
    http::RequestParser parser;
    feed_in_segments(parser, stream, [&] {
      while (parser.next()) ++parsed;
    });
    if (parser.failed()) throw std::runtime_error("request replay failed");
  }
  return static_cast<double>(parsed);
}

/// Parses the site's responses, pipelined, until `bytes` have gone by;
/// returns KB parsed.
double parse_responses(const content::MicroscapeSite& site, std::size_t bytes) {
  const std::vector<SiteObject> objects = site_objects(site);
  std::vector<std::uint8_t> stream;
  for (const SiteObject& o : objects) {
    http::Response res;
    res.headers.add("Server", "Apache/1.2b10");
    res.headers.add("Content-Type",
                    o.path == "/index.html" ? "text/html" : "image/gif");
    res.headers.add("Content-Length", std::to_string(o.body.size()));
    res.body = buf::Chain(o.body);
    const std::vector<std::uint8_t> wire = res.serialize();
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  const std::size_t loops = std::max<std::size_t>(1, bytes / stream.size());
  std::size_t parsed = 0;
  for (std::size_t l = 0; l < loops; ++l) {
    http::ResponseParser parser;
    for (std::size_t i = 0; i < objects.size(); ++i) {
      parser.push_request_context(http::Method::kGet);
    }
    feed_in_segments(parser, stream, [&] {
      while (parser.next()) ++parsed;
    });
    if (parser.failed()) throw std::runtime_error("response replay failed");
  }
  if (parsed != loops * objects.size()) {
    throw std::runtime_error("response replay lost messages");
  }
  return static_cast<double>(loops * stream.size()) / 1024.0;
}

// ---- h2 ---------------------------------------------------------------------

/// `total` frames in the workload's mix of frame types, DATA frames carrying
/// site bytes at the workload's mean DATA payload.
std::vector<h2::Frame> frame_mix(const ReplayInputs& in,
                                 const content::MicroscapeSite& site,
                                 std::size_t total) {
  struct Kind {
    const char* counter;
    h2::FrameType type;
  };
  static const Kind kKinds[] = {
      {"h2.frames.data", h2::FrameType::kData},
      {"h2.frames.headers", h2::FrameType::kHeaders},
      {"h2.frames.push_promise", h2::FrameType::kPushPromise},
      {"h2.frames.settings", h2::FrameType::kSettings},
      {"h2.frames.window_update", h2::FrameType::kWindowUpdate},
      {"h2.frames.goaway", h2::FrameType::kGoAway},
      {"h2.frames.rst_stream", h2::FrameType::kRstStream},
  };
  const double all = count(in, "h2.frames");
  const double data_frames = count(in, "h2.frames.data");
  const std::size_t data_len = std::clamp<std::size_t>(
      data_frames > 0
          ? static_cast<std::size_t>(count(in, "h2.data_bytes") / data_frames)
          : 1,
      1, h2::kDefaultMaxFrameSize);
  const buf::Chain body = site_bytes(site);

  http::Request req;
  req.target = "/images/img01.gif";
  req.headers.add("Host", "www.microscape.test");
  http::Response res;
  res.headers.add("Content-Type", "image/gif");
  res.headers.add("Content-Length", "1024");

  std::vector<h2::Frame> frames;
  frames.reserve(total);
  std::size_t body_off = 0;
  for (const Kind& k : kKinds) {
    const auto n = static_cast<std::size_t>(
        std::llround(static_cast<double>(total) * count(in, k.counter) / all));
    for (std::size_t i = 0; i < n; ++i) {
      h2::Frame f;
      f.type = k.type;
      f.stream_id = static_cast<std::uint32_t>(2 * (i % 64) + 1);
      switch (k.type) {
        case h2::FrameType::kData:
          if (body_off + data_len > body.size()) body_off = 0;
          f.payload = body.slice(body_off, data_len);
          body_off += data_len;
          break;
        case h2::FrameType::kHeaders:
          f.flags = h2::kFlagEndHeaders;
          f.payload = i % 2 == 0 ? h2::encode_request_block(req)
                                 : h2::encode_response_block(res);
          break;
        case h2::FrameType::kPushPromise:
          f.flags = h2::kFlagEndHeaders;
          f.payload = h2::encode_push_promise_payload(
              static_cast<std::uint32_t>(2 * (i % 64) + 2), req);
          break;
        case h2::FrameType::kSettings:
          f.stream_id = 0;
          f.payload = h2::encode_settings_payload(
              {{h2::kSettingsEnablePush, 1},
               {h2::kSettingsInitialWindowSize, h2::kDefaultInitialWindow}});
          break;
        case h2::FrameType::kWindowUpdate:
          f.payload = h2::encode_window_update_payload(65535);
          break;
        case h2::FrameType::kGoAway:
          f.stream_id = 0;
          f.payload = h2::encode_goaway_payload({1, 0});
          break;
        case h2::FrameType::kRstStream:
          f.payload = h2::encode_rst_payload(h2::ErrorCode::kCancel);
          break;
      }
      frames.push_back(std::move(f));
    }
  }
  return frames;
}

// ---- content / deflate ------------------------------------------------------

double gif_encode_site(const content::MicroscapeSite& site) {
  std::size_t out = 0;
  for (const content::SiteImage& img : site.images) {
    const auto encode = [&out](const content::IndexedImage& raster) {
      const unsigned code = std::max(2u, raster.bit_depth());
      out += content::gif_lzw_compress(raster.pixels, code).size();
    };
    if (img.animated) {
      for (const content::IndexedImage& f : img.source_animation.frames) {
        encode(f);
      }
    } else {
      encode(img.source);
    }
  }
  if (out == 0) throw std::runtime_error("gif replay produced nothing");
  return 1.0;
}

}  // namespace

void run_replays(const ReplayInputs& in, Spans& spans, std::size_t parent,
                 MetricTable& out) {
  const content::MicroscapeSite& site = harness::shared_site();
  const bool fleet = in.workload != "paper-tables";
  const std::size_t clients = fleet ? in.pages : 1;
  // The harness sizes its queue for 64 + 16 timers per client.
  const std::size_t depth = 64 + 16 * clients;
  constexpr std::size_t kQueueOps = 1 << 19;

  out.set("sim.queue.event_ns",
          1e9 * per_op(spans, "replay.sim.queue.event", parent,
                       [&] { return queue_event(depth, kQueueOps); }),
          "ns");
  out.set("sim.queue.rearm_ns",
          1e9 * per_op(spans, "replay.sim.queue.rearm", parent,
                       [&] { return timer_rearm(depth, kQueueOps); }),
          "ns");

  // Sharded engine at the workload's shard count and lookahead.
  double round_ns = 0;
  double barrier_ns = 0;
  if (fleet) {
    const harness::WorkloadConfig cfg = fleet_config(in.workload, in.seed);
    if (cfg.threads > 0) {
      const std::size_t shards = 1 + std::min<std::size_t>(cfg.num_clients, 8);
      const sim::Time w = harness::workload_lookahead(cfg);
      const double windows =
          std::max(1.0, in.active_sim_s * 1e9 / static_cast<double>(w));
      const auto per_round = static_cast<std::size_t>(std::clamp(
          count(in, "sim.events") / windows / static_cast<double>(shards), 1.0,
          10000.0));
      round_ns = 1e9 * per_op(spans, "replay.shard.round", parent, [&] {
                   return shard_rounds(shards, cfg.threads, w, shards,
                                       per_round, 2000);
                 });
      barrier_ns = 1e9 * per_op(spans, "replay.shard.barrier", parent, [&] {
                     return shard_rounds(shards, cfg.threads, w, 1, 1, 20000);
                   });
    }
  }
  out.set("shard.round_ns", round_ns, "ns");
  out.set("shard.barrier_ns", barrier_ns, "ns");

  // Link replays at the workload's mean packet size.
  const double packets = count(in, "net.packets");
  const std::size_t payload =
      packets > 0 ? static_cast<std::size_t>(std::max(
                        0.0, count(in, "net.wire_bytes") / packets -
                                 static_cast<double>(net::kIpTcpHeaderBytes)))
                  : 0;
  const std::size_t link_packets = capped(packets, 200'000);
  net::LinkConfig lan = harness::lan_profile().channel_config().a_to_b;
  out.set("net.link.transmit_ns",
          link_packets == 0
              ? 0.0
              : 1e9 * per_op(spans, "replay.net.link.transmit", parent, [&] {
                  return link_transmit(lan, payload, link_packets);
                }),
          "ns");
  double netem_ns = 0;
  if (count(in, "netem.radio_wakeups") > 0 && link_packets > 0) {
    net::ChannelConfig mobile = harness::mobile_profile().channel_config();
    net::apply_path_profile(*netem::named_profile("3g-drive"), mobile);
    netem_ns = 1e9 * per_op(spans, "replay.netem.transmit", parent, [&] {
                 return link_transmit(mobile.a_to_b, payload,
                                      std::min<std::size_t>(link_packets,
                                                            50'000));
               });
  }
  out.set("netem.transmit_ns", netem_ns, "ns");

  const double forwarded = count(in, "topo.forwarded");
  const std::size_t bn_depth = capped(count(in, "topo.bottleneck_depth"), 1 << 16);
  out.set("topo.qdisc.op_ns",
          forwarded == 0
              ? 0.0
              : 1e9 * per_op(spans, "replay.topo.qdisc", parent, [&] {
                  return qdisc_ops(bn_depth, capped(forwarded, 1'000'000));
                }),
          "ns");

  // TCP: the site's bytes over one connection, once per page (capped), and
  // the handshake loop at the workload's connection count (capped).
  const std::size_t bulk_pages = std::clamp<std::size_t>(in.pages, 1, 200);
  buf::Chain bulk;
  const buf::Chain one_site = site_bytes(site);
  for (std::size_t i = 0; i < bulk_pages; ++i) bulk.append(one_site);
  out.set("tcp.segment_ns",
          1e9 * per_op(spans, "replay.tcp.segment", parent,
                       [&] { return bulk_transfer(bulk); }),
          "ns");
  const std::size_t conns =
      std::max<std::size_t>(1, capped(count(in, "tcp.connections") / 2, 20'000));
  out.set("tcp.handshake_ns",
          1e9 * per_op(spans, "replay.tcp.handshake", parent,
                       [&] { return handshakes(conns); }),
          "ns");

  const std::size_t requests =
      std::max<std::size_t>(1, capped(count(in, "http.requests"), 100'000));
  out.set("http.request_parse_ns",
          1e9 * per_op(spans, "replay.http.request_parse", parent,
                       [&] { return parse_requests(site, requests); }),
          "ns");
  const std::size_t resp_bytes = capped(count(in, "tcp.bytes_sent"), 64u << 20);
  out.set("http.response_parse_ns_per_kb",
          1e9 * per_op(spans, "replay.http.response_parse", parent,
                       [&] { return parse_responses(site, resp_bytes); }),
          "ns/KB");

  // h2: the workload's frame mix, encoded, then decoded from MSS pieces.
  const std::size_t frames_n = capped(count(in, "h2.frames"), 100'000);
  double encode_ns = 0;
  double decode_ns = 0;
  if (frames_n > 0) {
    const std::vector<h2::Frame> frames = frame_mix(in, site, frames_n);
    buf::Chain wire;
    encode_ns = 1e9 * per_op(spans, "replay.h2.encode", parent, [&] {
                  wire.clear();
                  for (const h2::Frame& f : frames) wire.append(h2::encode_frame(f));
                  return static_cast<double>(frames.size());
                });
    decode_ns = 1e9 * per_op(spans, "replay.h2.decode", parent, [&] {
                  h2::FrameDecoder decoder;
                  buf::Chain rest = wire;
                  std::size_t decoded = 0;
                  while (!rest.empty()) {
                    decoder.feed(rest.split_front(std::min(kMss, rest.size())));
                    while (decoder.next()) ++decoded;
                  }
                  if (decoded != frames.size()) {
                    throw std::runtime_error("h2 decode replay lost frames");
                  }
                  return static_cast<double>(decoded);
                });
  }
  out.set("h2.frame_encode_ns", encode_ns, "ns");
  out.set("h2.frame_decode_ns", decode_ns, "ns");

  // The robot's rescan pattern: every MSS of HTML that arrives is followed
  // by a scan of the whole prefix received so far.
  const std::string_view html(site.html);
  const std::size_t scans = (html.size() + kMss - 1) / kMss;
  const std::size_t scan_pages = std::clamp<std::size_t>(in.pages, 1, 200);
  out.set("client.scans_per_page", static_cast<double>(scans), "count");
  out.set("client.scan_ns_per_page",
          1e9 * per_op(spans, "replay.client.scan", parent, [&] {
            std::size_t refs = 0;
            for (std::size_t p = 0; p < scan_pages; ++p) {
              for (std::size_t k = 1; k <= scans; ++k) {
                refs += content::scan_image_references(
                            html.substr(0, std::min(html.size(), k * kMss)))
                            .size();
              }
            }
            if (refs == 0) throw std::runtime_error("scan replay found nothing");
            return static_cast<double>(scan_pages);
          }),
          "ns");

  out.set("content.gif_encode_s",
          per_op(spans, "replay.content.gif_encode", parent,
                 [&] { return gif_encode_site(site); }),
          "s");
  out.set("deflate.compress_ns_per_kb",
          1e9 * per_op(spans, "replay.deflate.compress", parent, [&] {
            constexpr int kRounds = 20;
            std::size_t n = 0;
            for (int i = 0; i < kRounds; ++i) n += deflate::zlib_compress(html).size();
            if (n == 0) throw std::runtime_error("deflate replay produced nothing");
            return kRounds * static_cast<double>(html.size()) / 1024.0;
          }),
          "ns/KB");
}

}  // namespace perfbench
