#include "harness/workload.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "harness/chaos.hpp"
#include "harness/parallel.hpp"
#include "net/link.hpp"
#include "server/static_site.hpp"
#include "topo/topology.hpp"

namespace hsim::harness {

namespace {

constexpr net::IpAddr kServerAddr = 1;

net::IpAddr client_addr(unsigned i) { return 1000 + i; }

/// Clients-to-server aggregation point: everything a client uplink delivers
/// is pushed onto the shared bottleneck.
struct Funnel : net::PacketSink {
  net::Link* bottleneck = nullptr;
  void deliver(net::Packet packet) override {
    bottleneck->transmit(std::move(packet));
  }
};

/// Server-to-clients distribution point: routes by destination address onto
/// the matching client's access downlink.
struct Fanout : net::PacketSink {
  std::map<net::IpAddr, net::Link*> routes;
  void deliver(net::Packet packet) override {
    if (auto it = routes.find(packet.dst); it != routes.end()) {
      it->second->transmit(std::move(packet));
    }
  }
};

}  // namespace

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t salt) {
  // splitmix64: decorrelates the per-client streams from the master seed and
  // from each other without any cross-client draw ordering dependence.
  std::uint64_t z = master ^ (salt * 0x9e3779b97f4a7c15ULL);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

unsigned WorkloadResult::completed() const {
  unsigned n = 0;
  for (const ClientOutcome& c : clients) {
    if (c.complete()) ++n;
  }
  return n;
}

unsigned WorkloadResult::failed() const {
  unsigned n = 0;
  for (const ClientOutcome& c : clients) {
    if (c.resolved && !c.complete()) ++n;
  }
  return n;
}

bool WorkloadResult::all_resolved() const {
  return std::all_of(clients.begin(), clients.end(),
                     [](const ClientOutcome& c) { return c.resolved; });
}

std::vector<double> WorkloadResult::completed_page_seconds() const {
  std::vector<double> out;
  out.reserve(clients.size());
  for (const ClientOutcome& c : clients) {
    if (c.complete()) out.push_back(c.page_seconds());
  }
  return out;
}

namespace {
double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}
}  // namespace

double WorkloadResult::median_page_seconds() const {
  return percentile(completed_page_seconds(), 0.5);
}

double WorkloadResult::p95_page_seconds() const {
  return percentile(completed_page_seconds(), 0.95);
}

double WorkloadResult::jain_fairness_index() const {
  const std::vector<double> xs = completed_page_seconds();
  if (xs.empty()) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;  // all-zero times: degenerate but fair
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

WorkloadResult run_workload(const WorkloadConfig& config,
                            const content::MicroscapeSite& site) {
  const unsigned n = config.num_clients;
  // threads = 0, or a topology without a nanosecond of cross-shard
  // lookahead (zero-delay access legs), runs as one shard.
  const sim::Time lookahead =
      config.threads != 0 && n > 0 ? workload_lookahead(config) : 0;
  // Fixed partition: shard 0 = server + shared infrastructure, clients
  // round-robin over the remaining S-1 = min(N, 8) shards. S never depends
  // on the thread count, so results are thread-count invariant.
  const std::size_t S = lookahead < 1 ? 1 : 1 + std::min<std::size_t>(n, 8);
  const auto shard_of_client = [S](unsigned i) -> std::size_t {
    return S == 1 ? 0 : 1 + i % (S - 1);
  };

  ShardedRun run(S, config.threads, lookahead);
  sim::ShardedEngine& engine = run.engine;
  sim::EventQueue& queue0 = engine.queue(0);
  queue0.reserve(64 + 16 * static_cast<std::size_t>(n) / S);

  // ---- Shared side (shard 0): server host, bottleneck, aggregation ----
  run.use(0);
  sim::Rng server_rng(derive_seed(config.master_seed, kServerSeedSalt));
  tcp::Host server_host(queue0, kServerAddr, "server", server_rng.fork());

  net::TraceSummarizer bottleneck_trace(kServerAddr);
  const auto tap = [&bottleneck_trace, &queue0](const net::Packet& p) {
    bottleneck_trace.record(queue0.now(), p);
  };

  net::ChannelConfig access = config.access.channel_config();
  if (config.mutate_access) config.mutate_access(access);
  apply_profile_overlay(config.profile, access);
  std::vector<std::unique_ptr<tcp::Host>> hosts;
  std::vector<std::unique_ptr<net::Link>> links;  // star: owns up+down per client
  std::vector<std::unique_ptr<client::Robot>> robots;
  hosts.reserve(n);
  robots.reserve(n);

  client::ClientConfig client_template = config.client;
  client_template.tcp.recv_buffer = std::min(
      client_template.tcp.recv_buffer, config.access.client_recv_buffer);
  // De-synchronised backoff: each client's retry jitter draws from its own
  // splitmix64 stream, so a fleet never stampedes in lock-step. The seed is
  // a plain config value (no rng draw), leaving legacy draw order untouched.
  const auto client_config_for = [&](unsigned i) {
    client::ClientConfig cc = client_template;
    if (cc.retry_jitter > 0.0 && cc.retry_jitter_seed == 0) {
      cc.retry_jitter_seed = derive_seed(config.master_seed, kRetrySeedSalt + i);
    }
    return cc;
  };

  // Star wiring (legacy path — everything here, including the server_rng and
  // per-client rng fork order, must stay byte-exact with pre-topology builds).
  std::unique_ptr<net::Link> bottleneck_up;    // clients -> server
  std::unique_ptr<net::Link> bottleneck_down;  // server -> clients
  Funnel funnel;
  Fanout fanout;
  // Dumbbell wiring (routers + queue disciplines, topo subsystem).
  topo::Topology topo;
  // The star's two links or the topology's record: every bottleneck link
  // gets the trace tap (so conservation and the summary hold across
  // failovers), and the collect step sums and reports through it.
  topo::Bottleneck bottleneck;
  std::unique_ptr<server::HttpServer> server;

  if (config.topology == TopologyKind::kStar) {
    net::LinkConfig bn_cfg;
    bn_cfg.bandwidth_bps = config.bottleneck_bandwidth_bps;
    bn_cfg.propagation_delay = config.bottleneck_delay;
    bn_cfg.queue_limit_packets = config.bottleneck_queue_packets;
    bottleneck_up =
        std::make_unique<net::Link>(queue0, bn_cfg, server_rng.fork());
    bottleneck_down =
        std::make_unique<net::Link>(queue0, bn_cfg, server_rng.fork());
    bottleneck.links = {bottleneck_up.get(), bottleneck_down.get()};

    funnel.bottleneck = bottleneck_up.get();
    bottleneck_up->set_sink(&server_host);
    bottleneck_down->set_sink(&fanout);
    server_host.attach_uplink(bottleneck_down.get());

    server = std::make_unique<server::HttpServer>(
        server_host, server::StaticSite::from_microscape(site), config.server,
        server_rng.fork());
    server->start(80);

    // Per-client side: host, access links, robot.
    links.reserve(2 * static_cast<std::size_t>(n));
    for (unsigned i = 0; i < n; ++i) {
      const std::size_t cs = shard_of_client(i);
      run.use(cs);
      sim::EventQueue& cq = engine.queue(cs);
      sim::Rng crng(derive_seed(config.master_seed, kClientSeedSalt + i));
      auto host = std::make_unique<tcp::Host>(
          cq, client_addr(i), "client" + std::to_string(i), crng.fork());
      auto up = std::make_unique<net::Link>(cq, access.a_to_b, crng.fork());
      auto down = std::make_unique<net::Link>(cq, access.b_to_a, crng.fork());
      up->set_sink(&funnel);
      if (cs != 0) cross_deliver(engine, 0, *up);
      down->set_sink(host.get());
      fanout.routes[client_addr(i)] = down.get();
      host->attach_uplink(up.get());
      robots.push_back(std::make_unique<client::Robot>(*host, kServerAddr, 80,
                                                       client_config_for(i)));
      hosts.push_back(std::move(host));
      links.push_back(std::move(up));
      links.push_back(std::move(down));
    }
    if (S > 1) {
      // The bottleneck downlink fans out per packet: deliveries cross to the
      // destination client's shard, where Fanout's (read-only by now) route
      // table hands the packet to that client's own downlink.
      bottleneck_down->set_remote_deliver(
          [&engine, &fanout, &shard_of_client, n](sim::Time when,
                                                  net::Packet packet) {
            const bool known =
                packet.dst >= client_addr(0) && packet.dst < client_addr(n);
            const std::size_t dst =
                known ? shard_of_client(
                            static_cast<unsigned>(packet.dst - client_addr(0)))
                      : 0;
            engine.post(dst, when, [&fanout, p = std::move(packet)]() mutable {
              fanout.deliver(std::move(p));
            });
          });
    }
  } else {
    // Client hosts first (same per-client seed scheme as the star path; the
    // access links are built by the topology from its own kTopoSeedSalt
    // stream instead of the per-client streams).
    std::vector<tcp::Host*> client_hosts;
    client_hosts.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
      const std::size_t cs = shard_of_client(i);
      run.use(cs);
      sim::Rng crng(derive_seed(config.master_seed, kClientSeedSalt + i));
      hosts.push_back(std::make_unique<tcp::Host>(
          engine.queue(cs), client_addr(i), "client" + std::to_string(i),
          crng.fork()));
      client_hosts.push_back(hosts.back().get());
    }
    run.use(0);

    topo::BottleneckSpec spec;
    spec.bandwidth_bps = config.bottleneck_bandwidth_bps;
    spec.delay = config.bottleneck_delay;
    spec.queue = config.bottleneck_queue;
    // One knob governs the physical packet budget in both topologies.
    spec.queue.drop_tail.limit_packets = config.bottleneck_queue_packets;
    spec.queue.red.limit_packets = config.bottleneck_queue_packets;
    spec.mutate_link = config.mutate_bottleneck;

    topo::TopologyBuilder builder(
        queue0, sim::Rng(derive_seed(config.master_seed, kTopoSeedSalt)));
    if (S > 1) {
      builder.set_uplink_placement(
          [&](std::size_t i) -> topo::TopologyBuilder::UplinkPlacement {
            const std::size_t cs = shard_of_client(static_cast<unsigned>(i));
            return {&engine.queue(cs), run.regs[cs].get()};
          });
    }
    topo = builder.dumbbell(
        client_hosts, &server_host, access, spec,
        config.topology == TopologyKind::kDumbbellRedundant);
    bottleneck = topo.bottleneck();
    if (config.hop_trace) topo.set_hop_trace(config.hop_trace);
    if (config.on_topology) config.on_topology(topo, queue0);

    server = std::make_unique<server::HttpServer>(
        server_host, server::StaticSite::from_microscape(site), config.server,
        server_rng.fork());
    server->start(80);

    for (unsigned i = 0; i < n; ++i) {
      const std::size_t cs = shard_of_client(i);
      if (cs != 0) {
        // The uplink delivers into the gate router on shard 0; the downlink
        // (a shard-0 gate egress) delivers back to the client.
        cross_deliver(engine, 0, *topo.client_legs()[i].up);
        cross_deliver(engine, cs, *topo.client_legs()[i].down);
      }
      run.use(cs);
      robots.push_back(std::make_unique<client::Robot>(
          *hosts[i], kServerAddr, 80, client_config_for(i)));
    }
  }
  run.use(0);
  for (net::Link* link : bottleneck.links) link->set_tap(tap);

  // ---- Arrival process ----
  sim::Rng arrival_rng(derive_seed(config.master_seed, kArrivalSeedSalt));
  std::vector<sim::Time> arrivals(n, 0);
  sim::Time t = 0;
  for (unsigned i = 0; i < n; ++i) {
    if (config.arrivals == ArrivalProcess::kFixedInterval) {
      arrivals[i] = static_cast<sim::Time>(i) * config.mean_interarrival;
    } else {
      const double u = arrival_rng.uniform_real(0.0, 1.0);
      t += static_cast<sim::Time>(
          -static_cast<double>(config.mean_interarrival) * std::log1p(-u));
      arrivals[i] = t;
    }
  }

  // A finished robot writes nothing more to its cache, so each page is
  // checked (when asked) and released the moment it completes: a fleet
  // holds only its in-flight pages. Done callbacks run on the client's own
  // shard, and each touches only its own slots.
  std::vector<char> resolved(n, 0);
  std::vector<char> byte_exact(n, 0);
  for (unsigned i = 0; i < n; ++i) {
    engine.queue(shard_of_client(i)).schedule_at(arrivals[i], [&, i] {
      robots[i]->start_first_visit("/index.html", [&, i] {
        resolved[i] = 1;
        client::Robot& robot = *robots[i];
        if (config.verify_cache && robot.stats().complete) {
          byte_exact[i] = cache_matches_site(robot.cache(), site);
        }
        robot.cache().clear();
      });
    });
  }

  if (config.epoch > 0 && config.on_epoch) {
    // Oracles fire at barriers with every worker parked, so walking topology
    // state is safe. They run with no registry installed: the run's metrics
    // live in per-shard registries until the final merge, so there is no
    // whole-run view to read mid-run.
    engine.set_epochs(config.epoch, config.horizon, [&](sim::Time) {
      obs::ScopedRegistry none(nullptr);
      config.on_epoch();
    });
  }

  std::size_t events = engine.run_until(config.horizon);
  // Allow FIN exchanges, idle timeouts and TIME_WAIT to drain so that the
  // connection-leak accounting below reflects steady state.
  events += engine.run_until(engine.now() + config.drain);
  obs::Registry& registry = run.merge();

  // ---- Collect ----
  WorkloadResult result;
  result.events_executed = events;
  result.clients.resize(n);
  const obs::HistogramHandle page_ms = obs::histogram_handle("workload.page_ms");
  for (unsigned i = 0; i < n; ++i) {
    ClientOutcome& out = result.clients[i];
    out.id = i;
    out.arrival = arrivals[i];
    out.resolved = resolved[i] != 0;
    out.stats = robots[i]->stats();
    out.leaked_connections = hosts[i]->open_connections();
    if (out.complete()) {
      page_ms.observe(
          static_cast<std::uint64_t>(out.page_seconds() * 1000.0));
    }
    out.byte_exact = byte_exact[i] != 0;
  }
  // Registry-backed, like run_once: the bottleneck tap feeds the trace.*
  // metrics per packet, and summary_from_metrics reads the summary back.
  result.bottleneck = net::summary_from_metrics(registry);
  result.bottleneck_syns = registry.counter_value("trace.syn_packets");
  result.tcp_retransmits = registry.counter_value("tcp.retransmits");
  // The star's drop-tail lives in its links; a dumbbell's buffering lives in
  // its queue disciplines (their links are back-pressured and never drop,
  // but count them anyway so a regression there can't hide).
  for (const net::Link* link : bottleneck.links) {
    result.bottleneck_queue_drops += link->stats().packets_dropped_queue;
  }
  for (const topo::QueueDisc* q : bottleneck.queues) {
    result.bottleneck_queue_drops += q->stats().dropped();
    result.queues.push_back(
        QueueSummary{q->label(), std::string(q->kind()), q->stats()});
  }
  result.server = server->stats();
  if (const tcp::ListenerStats* ls = server_host.listener_stats(80)) {
    result.listener = *ls;
  }
  result.server_connections_total = server_host.total_connections_created();
  result.server_max_open = server_host.max_simultaneous_connections();
  result.server_open_after_drain = server_host.open_connections();
  if (config.metrics_sink) config.metrics_sink->consume(registry);
  result.metrics = registry.snapshot();
  return result;
}

}  // namespace hsim::harness
