#include "topo/topology.hpp"

#include <utility>

namespace hsim::topo {

namespace {

/// How long a router must observe the primary bottleneck down (or healthy
/// again) before failing over (or back) in the redundant dumbbell.
constexpr sim::Time kFailoverDetectionDelay = sim::milliseconds(50);

net::LinkConfig attach_link_config() {
  // Host-attachment leg: infinite bandwidth, zero delay — purely a wiring
  // element so the router-side egress still has a Link to clock against.
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 0;
  cfg.propagation_delay = 0;
  cfg.queue_limit_packets = 4;  // router back-pressure keeps this at <= 1
  return cfg;
}

net::LinkConfig bottleneck_link_config(const BottleneckSpec& spec) {
  net::LinkConfig cfg;
  cfg.bandwidth_bps = spec.bandwidth_bps;
  cfg.propagation_delay = spec.delay;
  // All buffering lives in the router's queue discipline; the link itself
  // only ever holds the packet being serialised.
  cfg.queue_limit_packets = 4;
  return cfg;
}

/// An unlimited DropTail for host-attachment and fan-out egresses whose
/// queueing should be invisible.
std::unique_ptr<QueueDisc> unlimited_queue(std::string label) {
  return std::make_unique<DropTail>(std::move(label),
                                    DropTailConfig{/*limit_packets=*/0,
                                                   /*limit_bytes=*/0});
}

}  // namespace

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

Router* Topology::router(std::string_view name) const {
  const auto it = routers_by_name_.find(name);
  return it == routers_by_name_.end() ? nullptr : it->second;
}

net::Link* Topology::link(std::string_view name) const {
  const auto it = links_by_name_.find(name);
  return it == links_by_name_.end() ? nullptr : it->second;
}

void Topology::set_hop_trace(net::PacketTrace* trace) {
  for (const auto& router : routers_) router->set_hop_trace(trace);
}

net::Link* Topology::add_link(const std::string& name, sim::EventQueue& queue,
                              const net::LinkConfig& config, sim::Rng rng) {
  // Every topology link is registry-visible under its topology name, so the
  // drop partition is attributable per link at every layer.
  net::LinkConfig labeled = config;
  labeled.label = name;
  links_.push_back(std::make_unique<net::Link>(queue, labeled, rng));
  net::Link* link = links_.back().get();
  links_by_name_[name] = link;
  return link;
}

Router* Topology::add_router(const std::string& name, sim::EventQueue& queue) {
  routers_.push_back(
      std::make_unique<Router>(queue, next_router_id_++, name));
  Router* router = routers_.back().get();
  routers_by_name_[name] = router;
  return router;
}

// ---------------------------------------------------------------------------
// TopologyBuilder
// ---------------------------------------------------------------------------

void TopologyBuilder::wire_client_legs(Topology& topo,
                                       const std::vector<tcp::Host*>& clients,
                                       const net::ChannelConfig& access,
                                       Router* gate) {
  for (std::size_t i = 0; i < clients.size(); ++i) {
    tcp::Host* client = clients[i];
    const std::string base = "client" + std::to_string(i);
    UplinkPlacement placement;
    if (uplink_placement_) placement = uplink_placement_(i);
    sim::EventQueue& up_queue =
        placement.queue != nullptr ? *placement.queue : queue_;
    net::Link* up;
    {
      // The uplink's metric handles must bind the shard registry its
      // transmitter will run under; the fork order is untouched either way.
      obs::ScopedRegistry scoped(placement.registry != nullptr
                                     ? placement.registry
                                     : obs::registry());
      up = topo.add_link(base + ".up", up_queue, access.a_to_b, rng_.fork());
    }
    net::Link* down = topo.add_link(base + ".down", queue_, access.b_to_a,
                                    rng_.fork());
    up->set_sink(gate);
    down->set_sink(client);
    topo.client_legs_.push_back({up, down});
    client->attach_uplink(up);
    const std::size_t egress =
        gate->add_egress(down, unlimited_queue(gate->name() + "." + base));
    gate->add_route(client->addr(), egress);
  }
}

Topology TopologyBuilder::dumbbell(const std::vector<tcp::Host*>& clients,
                                   tcp::Host* server,
                                   const net::ChannelConfig& access,
                                   const BottleneckSpec& bottleneck,
                                   bool redundant) {
  const std::vector<std::string> pairs =
      redundant ? std::vector<std::string>{"bnA", "bnB"}
                : std::vector<std::string>{"bn"};
  Topology topo;
  Router* gate = topo.add_router("gate", queue_);
  Router* core = topo.add_router("core", queue_);

  // The first pair carries the injected faults; a backup pair stays clean so
  // the failover has somewhere sane to land.
  std::vector<net::Link*> ups, downs;
  for (const std::string& pair : pairs) {
    net::LinkConfig cfg = bottleneck_link_config(bottleneck);
    if (ups.empty() && bottleneck.mutate_link) bottleneck.mutate_link(cfg);
    ups.push_back(topo.add_link(pair + ".up", queue_, cfg, rng_.fork()));
    downs.push_back(topo.add_link(pair + ".down", queue_, cfg, rng_.fork()));
    ups.back()->set_sink(core);
    downs.back()->set_sink(gate);
    topo.bottleneck_.links.push_back(ups.back());
    topo.bottleneck_.links.push_back(downs.back());
  }

  // The shared queues: everything client->server crosses a gate egress,
  // everything server->client a core egress. Returns the primary egress.
  const auto add_bottleneck_egresses = [&](Router* router,
                                           const std::vector<net::Link*>& links,
                                           const char* direction) {
    std::vector<std::size_t> egress;
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      egress.push_back(router->add_egress(
          links[p], make_queue_disc(bottleneck.queue, pairs[p] + direction,
                                    rng_.fork())));
      topo.bottleneck_.queues.push_back(&router->egress_queue(egress.back()));
    }
    if (redundant) {
      router->set_failover(egress[0], egress[1], kFailoverDetectionDelay);
    }
    return egress[0];
  };
  gate->add_route(server->addr(), add_bottleneck_egresses(gate, ups, ".up"));
  core->set_default_route(add_bottleneck_egresses(core, downs, ".down"));

  // Server attachment: an infinite-capacity leg so the core has a Link to
  // clock against; the bottleneck serialisation happened one hop earlier.
  net::Link* server_up =
      topo.add_link("server.up", queue_, attach_link_config(), rng_.fork());
  net::Link* server_down =
      topo.add_link("server.down", queue_, attach_link_config(), rng_.fork());
  server_up->set_sink(core);
  server_down->set_sink(server);
  server->attach_uplink(server_up);
  const std::size_t to_server =
      core->add_egress(server_down, unlimited_queue("core.server"));
  core->add_route(server->addr(), to_server);

  wire_client_legs(topo, clients, access, gate);
  return topo;
}

}  // namespace hsim::topo
