// A store-and-forward router node.
//
// A Router is a net::PacketSink that forwards arriving packets onto one of
// its egress ports via a static forwarding table (exact destination match,
// with an optional default route). Each egress pairs a net::Link — the
// physical transmitter — with a pluggable QueueDisc that owns all buffering
// policy: the router enqueues into the discipline and clocks exactly one
// packet at a time into the link, using Link::set_on_idle as back-pressure,
// so the link's internal queue never holds more than the packet being
// serialised and every queue/drop decision is the discipline's.
//
// Routers are the simulator's multi-hop observation points: an attached
// PacketTrace records each forwarded packet with this router's id and the
// egress queue depth it found at enqueue (the v2 trace formats' hop column).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/trace.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "topo/queue_disc.hpp"

namespace hsim::topo {

struct RouterStats {
  std::uint64_t forwarded = 0;         // accepted onto an egress queue
  std::uint64_t dropped_queue = 0;     // refused by a queue discipline
  std::uint64_t dropped_no_route = 0;  // no table entry and no default route
  std::uint64_t dropped_crashed = 0;   // arrived while the router was down
  std::uint64_t crash_flushed = 0;     // queued packets lost to a crash
  std::uint64_t failovers = 0;         // primary → backup route switches
  std::uint64_t failbacks = 0;         // backup → primary route switches
};

class Router : public net::PacketSink {
 public:
  static constexpr std::size_t kNoRoute = std::numeric_limits<std::size_t>::max();

  Router(sim::EventQueue& queue, std::int32_t id, std::string name);

  /// Registers an egress port; the router does not own the link. Returns the
  /// egress index used by add_route.
  std::size_t add_egress(net::Link* link, std::unique_ptr<QueueDisc> disc);

  /// Exact-match route: packets for `dst` leave through egress `egress`.
  void add_route(net::IpAddr dst, std::size_t egress);
  /// Fallback egress for destinations with no exact match.
  void set_default_route(std::size_t egress) { default_route_ = egress; }

  /// Multi-hop capture: every forwarded packet is recorded with this
  /// router's id and the queue depth found at enqueue.
  void set_hop_trace(net::PacketTrace* trace) { hop_trace_ = trace; }

  // ---- Fault injection ----------------------------------------------------

  /// Crashes the router: forwarding halts (arrivals are dropped with
  /// attribution in dropped_crashed) and every packet buffered in an egress
  /// discipline is destroyed (counted in crash_flushed and the discipline's
  /// dropped_flushed). Idempotent while already crashed.
  void crash();
  /// Brings a crashed router back: forwarding resumes with empty buffers.
  void restart();
  bool crashed() const { return crashed_; }
  /// Schedules a crash() at `down_at` and the matching restart() at `up_at`
  /// on the router's event queue.
  void schedule_crash(sim::Time down_at, sim::Time up_at);

  /// Wedges an egress: its discipline keeps accepting packets but the router
  /// stops clocking them into the link, so the queue fills and overflows.
  /// Unwedging resumes pumping immediately.
  void set_egress_wedged(std::size_t egress, bool wedged);
  bool egress_wedged(std::size_t egress) const {
    return egresses_[egress].wedged;
  }

  /// Deterministic forwarding-table failover: while the primary egress link
  /// has been observed down for at least `detection_delay`, packets routed
  /// to `primary` leave through `backup` instead; once the primary has been
  /// observed healthy again for `detection_delay`, traffic fails back.
  /// Detection is traffic-clocked (the state machine advances as packets
  /// arrive), so with no traffic there is no detection — as with real
  /// hello-based protocols, and exactly reproducible from the packet
  /// sequence. Packets arriving inside the detection window still go to the
  /// down primary (and are lost there) — that loss is the detection cost.
  void set_failover(std::size_t primary, std::size_t backup,
                    sim::Time detection_delay);

  // PacketSink: a packet arrived from one of the ingress links.
  void deliver(net::Packet packet) override;

  const std::string& name() const { return name_; }
  std::size_t egress_count() const { return egresses_.size(); }
  const QueueDisc& egress_queue(std::size_t i) const { return *egresses_[i].disc; }
  net::Link* egress_link(std::size_t i) const { return egresses_[i].link; }
  const RouterStats& stats() const { return stats_; }

 private:
  struct Egress {
    net::Link* link = nullptr;
    std::unique_ptr<QueueDisc> disc;
    bool wedged = false;
  };

  /// Primary→backup reroute state; see set_failover.
  struct Failover {
    std::size_t primary = kNoRoute;
    std::size_t backup = kNoRoute;
    sim::Time detection_delay = 0;
    bool using_backup = false;
    bool down_observed = false;  // down_since/up_since valid flags
    bool up_observed = false;
    sim::Time down_since = 0;
    sim::Time up_since = 0;
  };

  std::size_t route_for(net::IpAddr dst) const;
  /// Applies the failover state machine to a routed egress, advancing
  /// detection clocks as a side effect.
  std::size_t resolve_failover(std::size_t egress);
  /// Feeds the egress link while it is idle and the discipline has packets.
  void pump(std::size_t egress);

  sim::EventQueue& queue_;
  std::int32_t id_;
  std::string name_;
  std::vector<Egress> egresses_;
  std::map<net::IpAddr, std::size_t> routes_;
  std::size_t default_route_ = kNoRoute;
  net::PacketTrace* hop_trace_ = nullptr;
  bool crashed_ = false;
  std::vector<Failover> failovers_;
  RouterStats stats_;

  /// Aggregate topo.router.* metrics, summed over every router.
  struct Metrics {
    obs::CounterHandle forwarded, dropped_queue, dropped_no_route,
        dropped_crashed, crash_flushed, failovers, failbacks;
    static Metrics bind();
  };
  Metrics metrics_ = Metrics::bind();
};

}  // namespace hsim::topo
