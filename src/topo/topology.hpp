// Named multi-hop topologies composed from hosts, routers and links.
//
// The builder wires caller-owned tcp::Hosts into router/link graphs and
// returns a Topology that owns the routers, links and queue disciplines.
// One shape covers the many-client experiments (dumbbell_redundant adds a
// backup bottleneck pair to it):
//
//   dumbbell — the contention shape: per-client access legs into a "gate"
//   router, one shared bottleneck link pair (each direction carrying the
//   configured queue discipline) to a "core" router, and a host-attachment
//   leg to the server. Every byte of every client crosses the same two
//   bottleneck queues, so N clients genuinely share the capacity.
//
//       client0 ── access ──┐                      ┌── attach ── server
//       client1 ── access ──┤ gate ══ bottleneck ══ core
//       clientN ── access ──┘   (qdisc each way)
//
// All randomness (RED drop streams, link jitter) forks off the one rng the
// builder is given, so a topology is reproducible from a single seed.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/channel.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "tcp/host.hpp"
#include "topo/queue_disc.hpp"
#include "topo/router.hpp"

namespace hsim::topo {

/// Bottleneck link pair parameters (applied per direction).
struct BottleneckSpec {
  std::int64_t bandwidth_bps = 10'000'000;
  sim::Time delay = sim::milliseconds(10);
  QueueConfig queue;
  /// Optional edit of the bottleneck link configs just before the links are
  /// built (both directions; in dumbbell_redundant only the *primary* pair).
  /// This is how fault timelines arm outage windows / loss models on the
  /// shared link without touching the access legs. Null = unmodified.
  std::function<void(net::LinkConfig&)> mutate_link;
};

/// Owns the routers, links and queue disciplines a builder wired up; hosts
/// stay caller-owned. Links and routers are reachable by name:
///   links:   "client<i>.up" / "client<i>.down", "bn.up" / "bn.down",
///            "server.up" / "server.down"
///   routers: "gate" / "core"
class Topology {
 public:
  Router* router(std::string_view name) const;
  net::Link* link(std::string_view name) const;

  const std::vector<std::unique_ptr<Router>>& routers() const {
    return routers_;
  }

  /// Every queue discipline in the topology (router egress order), for
  /// stats collection.
  std::vector<const QueueDisc*> queues() const;

  /// Total packets dropped by queue disciplines, all routers.
  std::uint64_t queue_drops() const;

  /// Attaches a multi-hop trace to every router.
  void set_hop_trace(net::PacketTrace* trace);

 private:
  friend class TopologyBuilder;

  net::Link* add_link(const std::string& name, sim::EventQueue& queue,
                      const net::LinkConfig& config, sim::Rng rng);
  Router* add_router(const std::string& name, sim::EventQueue& queue);

  std::vector<std::unique_ptr<net::Link>> links_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::map<std::string, net::Link*, std::less<>> links_by_name_;
  std::map<std::string, Router*, std::less<>> routers_by_name_;
  std::int32_t next_router_id_ = 1;  // 0 is reserved; -1 means "no hop"
};

class TopologyBuilder {
 public:
  TopologyBuilder(sim::EventQueue& queue, sim::Rng rng)
      : queue_(queue), rng_(rng) {}

  /// Sharded-engine placement of client i's uplink. The uplink's transmitter
  /// is driven by the client host, so under the sharded engine it must
  /// schedule against the client shard's queue and bind its metrics to that
  /// shard's registry; everything else the builder wires (routers, queue
  /// disciplines, bottleneck pair, downlinks, server legs) stays on the
  /// builder's own queue and the ambient registry. Unset (the default)
  /// places everything on the builder queue — the classic single-queue
  /// layout. Placement never changes the builder's rng fork order, so the
  /// same seed draws the same streams in either layout.
  struct UplinkPlacement {
    sim::EventQueue* queue = nullptr;     // null: builder queue
    obs::Registry* registry = nullptr;    // null: ambient registry
  };
  using UplinkPlacementFn = std::function<UplinkPlacement(std::size_t client)>;
  void set_uplink_placement(UplinkPlacementFn fn) {
    uplink_placement_ = std::move(fn);
  }

  /// Shared dumbbell bottleneck (see file comment). `access` shapes each
  /// client's private legs; `bottleneck` shapes the shared pair, including
  /// the per-direction queue discipline.
  Topology dumbbell(const std::vector<tcp::Host*>& clients, tcp::Host* server,
                    const net::ChannelConfig& access,
                    const BottleneckSpec& bottleneck);

  /// Dumbbell with a redundant bottleneck: the shape of dumbbell(), plus a
  /// second (backup) bottleneck pair between gate and core. Both directions
  /// route over the primary pair ("bnA.up"/"bnA.down") until the owning
  /// router observes it down for 50 ms, then fail over to the backup pair
  /// ("bnB.up"/"bnB.down"), failing back symmetrically once the primary has
  /// been healthy for 50 ms. Detection is traffic-clocked (see
  /// Router::set_failover). bottleneck.mutate_link applies to the
  /// primary pair only, so injected outages exercise the failover path while
  /// the backup stays clean.
  Topology dumbbell_redundant(const std::vector<tcp::Host*>& clients,
                              tcp::Host* server,
                              const net::ChannelConfig& access,
                              const BottleneckSpec& bottleneck);

 private:
  /// Wires client i's duplex access legs: uplink into `gate`, downlink out
  /// of a per-client egress of `gate` routed to the client's address.
  void wire_client_legs(Topology& topo, const std::vector<tcp::Host*>& clients,
                        const net::ChannelConfig& access, Router* gate);

  sim::EventQueue& queue_;
  sim::Rng rng_;
  UplinkPlacementFn uplink_placement_;
};

/// An unlimited DropTail for host-attachment and fan-out egresses whose
/// queueing should be invisible.
std::unique_ptr<QueueDisc> unlimited_queue(std::string label);

}  // namespace hsim::topo
