// Deterministic chaos-soak harness.
//
// run_soak drives N clients through a dumbbell (by default the redundant
// dumbbell with forwarding-table failover) while a scripted multi-fault
// timeline hits the topology itself: router crashes that flush queued
// packets, bottleneck egress flaps through the link outage machinery, and
// queue-discipline wedges that fill and overflow a buffer without the link
// ever looking down. Every `epoch` of simulated time a set of invariant
// oracles walks the live topology:
//
//   - queue conservation, admission side:  offered == enqueued + dropped
//   - queue conservation, service side:    enqueued == dequeued +
//                                          dropped_flushed + depth
//   - link conservation per router egress: dequeued == sent + every drop
//                                          bucket + packets still queued
//   - router accounting: forwarded == sum of egress enqueues
//
// and after the drain the harness checks that every client reached a verdict,
// every permanently-failed request carries a failure attribution, and no
// connection leaked on either side. Everything is deterministic for a given
// master seed — two runs of the same SoakConfig produce identical results.
// Registry counters need no oracle: obs::Counter only adds, its merge only
// adds, and a registry never erases a name, so no counter can decrease.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/workload.hpp"

namespace hsim::harness {

enum class TopoFaultKind {
  /// Router `target` crashes at `at` (forwarding halts, queued packets are
  /// flushed with attribution) and restarts `duration` later.
  kRouterCrash,
  /// The primary bottleneck pair goes physically down for [at, at+duration)
  /// via net::LinkConfig::outages; with failover configured the routers
  /// reroute onto the backup pair after the detection delay. `target` unused.
  kBottleneckFlap,
  /// The egress feeding link `target` (e.g. "bnA.up") stops being pumped:
  /// its discipline keeps accepting until it overflows, then drains when the
  /// wedge lifts `duration` later.
  kQueueWedge,
};

struct TopoFaultEvent {
  TopoFaultKind kind = TopoFaultKind::kBottleneckFlap;
  /// Router name for kRouterCrash ("gate"/"core"), link name for kQueueWedge
  /// ("bnA.up", ...); ignored for kBottleneckFlap.
  std::string target;
  sim::Time at = 0;
  sim::Time duration = sim::seconds(1);
};

/// The soak defaults: N=100 Poisson arrivals through the redundant dumbbell
/// (so crash/flap faults exercise failover and failback), a 120 s horizon,
/// a 60 s drain and an oracle sweep every 5 s of simulated time.
WorkloadConfig soak_workload();

struct SoakConfig {
  /// The fleet, network, server, client, seed, horizon/drain, threads and
  /// oracle cadence (`epoch`; 0 disables the per-epoch sweep, terminal checks
  /// still run). The topology must be a dumbbell shape. run_soak owns the
  /// `mutate_bottleneck`, `hop_trace`, `on_topology` and `on_epoch` hooks;
  /// it arms any client recovery knob still at its "hang forever" default
  /// (attempts, deadlines, backoff, 5xx retry) so the run always terminates.
  /// The epoch oracles are shard-aware: they fire at engine barriers with
  /// every worker parked and read only the live topology, so the soak stays
  /// green at any thread count.
  WorkloadConfig workload = soak_workload();

  /// The scripted faults. Flap windows must not overlap each other (the link
  /// layer rejects overlapping outage windows with a clear error).
  std::vector<TopoFaultEvent> timeline;

  /// When non-empty, a failing run writes "<prefix>.failing.trace" (the
  /// multi-hop packet trace) and "<prefix>.metrics.txt" (the registry dump)
  /// for postmortem upload. Capturing the hop trace costs memory — leave
  /// empty for the N=1000 runs.
  std::string failing_artifact_prefix;
};

struct SoakResult {
  WorkloadResult workload;

  unsigned epochs_checked = 0;
  /// Human-readable oracle violations, capped at kMaxViolations (further
  /// ones only bump violations_suppressed).
  std::vector<std::string> violations;
  std::uint64_t violations_suppressed = 0;
  static constexpr std::size_t kMaxViolations = 64;

  // Recovery economics, summed over every client.
  std::uint64_t retries = 0;  // duplicate-request volume
  std::uint64_t retry_tokens_consumed = 0;
  std::uint64_t retry_tokens_refunded = 0;
  std::uint64_t retry_budget_exhausted = 0;
  std::uint64_t retry_after_honored = 0;
  std::uint64_t body_bytes = 0;  // goodput numerator
  // Topology recovery counters are in workload.metrics (topo.router.*).

  /// Every oracle green, every client resolved and attributed, no leaks.
  bool ok() const;
};

/// A representative multi-fault timeline: a long primary flap (drives
/// failover + failback), a gate crash, a bnA.up queue wedge, and a second
/// flap — spaced so recovery from each is observable before the next hits.
std::vector<TopoFaultEvent> default_soak_timeline();

/// Throws std::invalid_argument for a star topology or a caller-set hook
/// that run_soak owns (see SoakConfig::workload).
SoakResult run_soak(const SoakConfig& config,
                    const content::MicroscapeSite& site);

}  // namespace hsim::harness
