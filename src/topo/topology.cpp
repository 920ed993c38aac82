#include "topo/topology.hpp"

#include <utility>

namespace hsim::topo {

namespace {

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

}  // namespace

std::unique_ptr<QueueDisc> unlimited_queue(std::string label) {
  return std::make_unique<DropTail>(std::move(label),
                                    DropTailConfig{/*limit_packets=*/0,
                                                   /*limit_bytes=*/0});
}

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

std::vector<const QueueDisc*> Topology::queues() const {
  std::vector<const QueueDisc*> out;
  for (const auto& router : routers_) {
    for (std::size_t i = 0; i < router->egress_count(); ++i) {
      out.push_back(&router->egress_queue(i));
    }
  }
  return out;
}

std::uint64_t Topology::queue_drops() const {
  std::uint64_t drops = 0;
  for (const QueueDisc* q : queues()) drops += q->stats().dropped();
  return drops;
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
    client->attach_uplink(up);
    const std::size_t egress =
        gate->add_egress(down, unlimited_queue(gate->name() + "." + base));
    gate->add_route(client->addr(), egress);
  }
}

Topology TopologyBuilder::dumbbell(const std::vector<tcp::Host*>& clients,
                                   tcp::Host* server,
                                   const net::ChannelConfig& access,
                                   const BottleneckSpec& bottleneck) {
  Topology topo;
  Router* gate = topo.add_router("gate", queue_);
  Router* core = topo.add_router("core", queue_);

  net::LinkConfig bn_cfg = bottleneck_link_config(bottleneck);
  if (bottleneck.mutate_link) bottleneck.mutate_link(bn_cfg);
  net::Link* bn_up = topo.add_link("bn.up", queue_, bn_cfg, rng_.fork());
  net::Link* bn_down = topo.add_link("bn.down", queue_, bn_cfg, rng_.fork());
  bn_up->set_sink(core);
  bn_down->set_sink(gate);

  // The shared queues: everything client->server crosses gate's bottleneck
  // egress, everything server->client crosses core's.
  const std::size_t gate_to_core = gate->add_egress(
      bn_up, make_queue_disc(bottleneck.queue, "bn.up", rng_.fork()));
  const std::size_t core_to_gate = core->add_egress(
      bn_down, make_queue_disc(bottleneck.queue, "bn.down", rng_.fork()));
  gate->add_route(server->addr(), gate_to_core);
  core->set_default_route(core_to_gate);

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

Topology TopologyBuilder::dumbbell_redundant(
    const std::vector<tcp::Host*>& clients, tcp::Host* server,
    const net::ChannelConfig& access, const BottleneckSpec& bottleneck,
    const FailoverSpec& failover) {
  Topology topo;
  Router* gate = topo.add_router("gate", queue_);
  Router* core = topo.add_router("core", queue_);

  // Primary pair carries the injected faults; the backup pair stays clean so
  // the failover has somewhere sane to land.
  net::LinkConfig primary_cfg = bottleneck_link_config(bottleneck);
  if (bottleneck.mutate_link) bottleneck.mutate_link(primary_cfg);
  const net::LinkConfig backup_cfg = bottleneck_link_config(bottleneck);

  net::Link* bna_up = topo.add_link("bnA.up", queue_, primary_cfg, rng_.fork());
  net::Link* bna_down =
      topo.add_link("bnA.down", queue_, primary_cfg, rng_.fork());
  net::Link* bnb_up = topo.add_link("bnB.up", queue_, backup_cfg, rng_.fork());
  net::Link* bnb_down =
      topo.add_link("bnB.down", queue_, backup_cfg, rng_.fork());
  bna_up->set_sink(core);
  bnb_up->set_sink(core);
  bna_down->set_sink(gate);
  bnb_down->set_sink(gate);

  const std::size_t gate_primary = gate->add_egress(
      bna_up, make_queue_disc(bottleneck.queue, "bnA.up", rng_.fork()));
  const std::size_t gate_backup = gate->add_egress(
      bnb_up, make_queue_disc(bottleneck.queue, "bnB.up", rng_.fork()));
  gate->add_route(server->addr(), gate_primary);
  gate->set_failover(gate_primary, gate_backup, failover.detection_delay);

  const std::size_t core_primary = core->add_egress(
      bna_down, make_queue_disc(bottleneck.queue, "bnA.down", rng_.fork()));
  const std::size_t core_backup = core->add_egress(
      bnb_down, make_queue_disc(bottleneck.queue, "bnB.down", rng_.fork()));
  core->set_default_route(core_primary);
  core->set_failover(core_primary, core_backup, failover.detection_delay);

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
