// The engine behind the harness entry points.
//
// run_workload and run_once build every simulation on a sim::ShardedEngine.
// There is one engine: threads = 0 (and any topology with less than 1 ns of
// cross-shard lookahead) runs as one shard with no crossings, which executes
// exactly what a single EventQueue would. With threads >= 1 the partition is
//
//   workload, star     — shard 0 owns the server host, the HTTP server and
//                        both bottleneck links; client i (host + access link
//                        pair + robot) lives on shard 1 + i mod (S-1).
//                        Client uplinks remote-deliver into the funnel on
//                        shard 0; the bottleneck downlink remote-delivers
//                        per packet.dst straight to the owning client shard.
//   workload, dumbbell — routers, queue disciplines, the bottleneck pair(s),
//                        the server legs and every client *downlink* stay on
//                        shard 0 (they are all driven by shard-0 components);
//                        only each client's uplink moves to its client shard
//                        (TopologyBuilder::set_uplink_placement). Uplink
//                        deliveries cross into the gate router; downlink
//                        deliveries cross back to the client's shard.
//   run_once           — two shards: 0 = client side, 1 = server side, the
//                        duplex channel's two links split accordingly.
//
// A crossing is installed only where its two ends sit on different shards.
// Determinism: every rng stream is forked in the same order whatever the
// shard count, each component schedules only against its own shard's queue,
// and cross-shard deliveries are ordered by the sender's full EventKey — see
// sim/shard.hpp for why the thread count can never change the result.
// Metrics are counted into one registry per shard (obs::set_registry is
// thread-local) and merged in shard order after the run.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/workload.hpp"
#include "net/link.hpp"
#include "obs/metrics.hpp"
#include "sim/shard.hpp"
#include "sim/time.hpp"

namespace hsim::harness {

/// HSIM_THREADS parsed as an unsigned, or 0 when unset/unparsable. The
/// runtime analogue of the configs' `threads` field: it lets CI rerun any
/// existing binary (golden tests, benches, the chaos matrix) on several
/// shards without a rebuild, mirroring the HSIM_CC hook.
unsigned threads_from_env();

/// Conservative lookahead available to a sharded run of this configuration:
/// the minimum worst-case-jitter latency over every link that would cross a
/// shard boundary. < 1 ns means the topology cannot be split, and the run
/// uses one shard.
sim::Time workload_lookahead(const WorkloadConfig& config);
sim::Time run_once_lookahead(const ExperimentSpec& spec);

/// The engine plus one metrics registry per shard. The engine's shard-enter
/// hook installs a shard's registry before its slice runs; shard 0's is the
/// ambient registry outside slices and the merge target after the run.
struct ShardedRun {
  ShardedRun(std::size_t shards, unsigned threads, sim::Time lookahead);
  ShardedRun(const ShardedRun&) = delete;  // the engine's hook holds `this`
  ShardedRun& operator=(const ShardedRun&) = delete;

  /// Installs `shard`'s registry, for components built outside any slice.
  void use(std::size_t shard) { obs::set_registry(regs[shard].get()); }
  /// Folds shards 1..S-1 into shard 0's registry in shard order, installs it
  /// and returns it. A one-shard run merges nothing.
  obs::Registry& merge();

  std::vector<std::unique_ptr<obs::Registry>> regs;
  obs::ScopedRegistry scoped{regs[0].get()};
  sim::ShardedEngine engine;
};

/// Routes a link's deliveries across the shard boundary: the sink runs on
/// `dst` at the link-computed arrival time, everything else stays put. The
/// sink pointer is captured now — callers wire sinks before hooks.
void cross_deliver(sim::ShardedEngine& engine, std::size_t dst,
                   net::Link& link);

}  // namespace hsim::harness
