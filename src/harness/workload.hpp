// Many-client workload driver.
//
// The paper measured one robot against one server; its conclusions are about
// what happens when *everyone* switches to HTTP/1.1. This driver instantiates
// N independent clients — each with its own tcp::Host, access link and Rng
// stream derived from a master seed — in front of a single server, starts
// them with a Poisson or fixed-interval arrival process, and collects
// per-client completion times, failure attribution and the aggregate packet
// summary at the bottleneck. Everything is deterministic for a given master
// seed: two runs produce identical statistics.
//
// Two topologies are supported:
//
//   kStar (legacy, byte-exact with pre-topology builds): a funnel/fan-out
//   pair aggregates the per-client access links onto one bottleneck link
//   pair whose queueing is the link's own drop-tail.
//
//     client 0 ── access link ──┐
//     client 1 ── access link ──┼── bottleneck link ── server
//     ...                       │   (tap: TraceSummarizer)
//     client N ── access link ──┘
//
//   kDumbbell (topo subsystem): two routers bracket a shared bottleneck
//   link pair carrying a pluggable queue discipline (DropTail budgets or
//   RED) per direction, so N clients genuinely contend — see
//   topo/topology.hpp. Per-queue depth/drop/latency stats surface in the
//   run's registry (topo.queue.*) and in WorkloadResult::queues.
//
// Either way the bottleneck is one topo::Bottleneck record — the star's two
// links, or the one the topology recorded — and the run taps it for the
// trace summary, sums its drops and reports its queues through that record.
//
//     client 0 ── access ──┐                    ┌── server
//     client 1 ── access ──┤ gate ══ qdisc ══ core
//     client N ── access ──┘    bottleneck pair
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "client/robot.hpp"
#include "content/microscape.hpp"
#include "harness/network.hpp"
#include "net/trace.hpp"
#include "obs/metrics.hpp"
#include "server/config.hpp"
#include "server/server.hpp"
#include "tcp/host.hpp"
#include "topo/queue_disc.hpp"
#include "topo/topology.hpp"

namespace hsim::harness {

enum class ArrivalProcess {
  kFixedInterval,  // client i starts at exactly i * mean_interarrival
  kPoisson,        // exponential inter-arrival gaps with the given mean
};

enum class TopologyKind {
  kStar,      // legacy funnel/fan-out; byte-exact with pre-topology builds
  kDumbbell,  // routers + queue disciplines around a shared bottleneck
  /// Dumbbell with a redundant bottleneck pair and deterministic
  /// forwarding-table failover (topo::TopologyBuilder::dumbbell, redundant).
  kDumbbellRedundant,
};

struct WorkloadConfig {
  unsigned num_clients = 10;
  ArrivalProcess arrivals = ArrivalProcess::kPoisson;
  sim::Time mean_interarrival = sim::milliseconds(50);

  /// Per-client access network (bandwidth/RTT/queue of the client's own leg).
  NetworkProfile access = lan_profile();

  /// Optional edit of the access channel after the profile produced it but
  /// before any link is built — the same fault-injection hook as
  /// ExperimentSpec::mutate_channel, so every chaos regime can ride any
  /// topology. Null = profile used as-is (the legacy byte-exact path).
  std::function<void(net::ChannelConfig&)> mutate_access;

  /// Time-varying profile overlaid on every client's access channel (netem
  /// subsystem): "flat", a built-in name or a profiles/*.netem file path;
  /// empty = static access links.
  /// Applied after mutate_access — chaos regimes compose with any profile.
  std::string profile;

  /// Which shape carries the traffic. kStar keeps the legacy funnel path
  /// (byte-exact with pre-topology builds); kDumbbell routes every client
  /// through a shared router/queue-discipline bottleneck (topo subsystem).
  TopologyKind topology = TopologyKind::kStar;

  /// The shared bottleneck between the aggregation point and the server.
  std::int64_t bottleneck_bandwidth_bps = 10'000'000;
  sim::Time bottleneck_delay = sim::milliseconds(10);
  std::size_t bottleneck_queue_packets = 256;

  /// Dumbbell only: the per-direction bottleneck queue discipline (kind,
  /// byte budget, RED parameters). The *packet* budget always comes from
  /// bottleneck_queue_packets above, so the one knob governs the physical
  /// buffer in both topologies.
  topo::QueueConfig bottleneck_queue;

  /// Dumbbell only: edit of the bottleneck link config(s) before the links
  /// are built (topo::BottleneckSpec::mutate_link) — how fault timelines arm
  /// outage windows on the shared link. In the redundant dumbbell this hits
  /// the primary pair only.
  std::function<void(net::LinkConfig&)> mutate_bottleneck;

  /// Dumbbell shapes only: called with the freshly-built topology and the
  /// event queue before any client starts. Fault timelines use it to grab
  /// router pointers and schedule crashes / wedges; oracles to capture the
  /// structures they will walk.
  std::function<void(topo::Topology&, sim::EventQueue&)> on_topology;

  /// When both are set, on_epoch fires every `epoch` of simulated time up to
  /// the horizon (first firing at t = epoch), at an engine barrier with every
  /// worker parked. It runs with no metrics registry installed
  /// (obs::registry() is null): mid-run the metrics are split across the
  /// shard registries, so there is no whole-run view to read. The soak
  /// harness runs its topology oracles here.
  sim::Time epoch = 0;
  std::function<void()> on_epoch;

  /// Dumbbell only: when set, every packet crossing a router is recorded
  /// here with the router id and the egress queue depth at enqueue
  /// (multi-hop trace; intended for small N — it keeps every record).
  net::PacketTrace* hop_trace = nullptr;

  server::ServerConfig server;
  client::ClientConfig client;

  std::uint64_t master_seed = 1;

  /// Hard horizon for the measured phase; generous, only guards stalls.
  sim::Time horizon = sim::seconds(600);
  /// Extra time after the horizon for FIN exchanges / TIME_WAIT to drain,
  /// so the leak check below is meaningful.
  sim::Time drain = sim::seconds(120);

  /// Byte-exact cache verification against the source site, once per page
  /// that completes, at its completion (scale tests want it; the 1000-client
  /// bench skips the O(N·site) cost). Either way each robot's cache is
  /// released as soon as its page resolves.
  bool verify_cache = false;

  /// Optional: handed the run's metrics registry (the shard registries'
  /// merge) before teardown.
  obs::MetricsSink* metrics_sink = nullptr;

  /// Worker threads. There is one engine (harness/parallel.hpp): 0 (default)
  /// runs it as one shard with no crossings, byte-exact with every
  /// pre-sharding build. >= 1 partitions the hosts into
  /// 1 + min(num_clients, 8) shards (shard 0 = server + bottleneck, clients
  /// round-robin over the rest) run by that many worker threads. The
  /// partition does not depend on `threads`, so every threads >= 1 value
  /// produces byte-identical results — the thread count is purely a
  /// performance knob. A topology whose minimum cross-shard latency is below
  /// 1 ns (no usable lookahead) keeps one shard at any thread count.
  unsigned threads = 0;
};

struct ClientOutcome {
  unsigned id = 0;
  sim::Time arrival = 0;   // when this client began its visit
  bool resolved = false;   // the robot reached a verdict (done callback fired)
  bool byte_exact = false; // only meaningful with WorkloadConfig::verify_cache
  std::size_t leaked_connections = 0;  // client-host conns open after drain
  client::RobotStats stats;            // includes failure attribution

  bool complete() const { return stats.complete; }
  double page_seconds() const { return stats.elapsed_seconds(); }
};

/// One bottleneck queue's identity and counters, copied out of the topology
/// before teardown (dumbbell runs only).
struct QueueSummary {
  std::string label;  // e.g. "bn.up"
  std::string kind;   // "DropTail" / "RED"
  topo::QueueStats stats;
};

struct WorkloadResult {
  std::vector<ClientOutcome> clients;

  /// Plain-value copy of the run's metrics registry (includes the
  /// workload.page_ms histogram of completed-client page times).
  obs::Snapshot metrics;

  /// Aggregate packet summary at the shared bottleneck (both directions).
  net::TraceSummary bottleneck;
  std::uint64_t bottleneck_syns = 0;        // client SYNs crossing it
  std::uint64_t bottleneck_queue_drops = 0; // queue losses, both directions

  /// Total discrete events the queue executed (run + drain). Deterministic
  /// for a fixed config/seed; the denominator for events/sec perf numbers.
  std::size_t events_executed = 0;

  /// Total TCP retransmissions across every host (registry tcp.retransmits).
  std::uint64_t tcp_retransmits = 0;

  /// Dumbbell runs: the bottleneck queue disciplines' counters, in the
  /// order topo::Bottleneck::queues records them ("bn.up", "bn.down"; or
  /// "bnA.up", "bnB.up", "bnA.down", "bnB.down"). Empty for star runs.
  std::vector<QueueSummary> queues;

  server::ServerStats server;
  tcp::ListenerStats listener;              // backlog accounting at the server
  std::uint64_t server_connections_total = 0;  // churn: conns ever created
  std::size_t server_max_open = 0;
  std::size_t server_open_after_drain = 0;     // leak check

  unsigned completed() const;   // clients that finished byte-complete
  unsigned failed() const;      // clients with at least one permanent failure
  bool all_resolved() const;    // no client hung

  /// Page times of the clients that completed, in client order.
  std::vector<double> completed_page_seconds() const;
  double median_page_seconds() const;
  double p95_page_seconds() const;

  /// Jain's fairness index over completed page times:
  /// (Σx)² / (n·Σx²) — 1.0 is perfectly fair, 1/n is maximally unfair.
  double jain_fairness_index() const;
};

/// The seeding scheme: splitmix64 over (master ^ salt). Per-client streams
/// use salt = kClientSeedSalt + client id, so client i's randomness does not
/// depend on N or on any other client's draws.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t salt);
inline constexpr std::uint64_t kArrivalSeedSalt = 0xA881;
inline constexpr std::uint64_t kServerSeedSalt = 0x5E12;
inline constexpr std::uint64_t kClientSeedSalt = 0xC000;
/// Dumbbell topology stream (router-egress links, RED drop draws). A
/// separate salt keeps the star path's draw order untouched.
inline constexpr std::uint64_t kTopoSeedSalt = 0x70B0;
/// Per-client retry-jitter stream (client i gets salt + i). Only consulted
/// when ClientConfig::retry_jitter > 0, so it is invisible to legacy runs.
inline constexpr std::uint64_t kRetrySeedSalt = 0x4E77;

WorkloadResult run_workload(const WorkloadConfig& config,
                            const content::MicroscapeSite& site);

}  // namespace hsim::harness
