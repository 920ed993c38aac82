// Thread-count determinism matrix for the host-sharded engine.
//
// The engine's contract (harness/parallel.hpp): for a fixed shard
// partition, the worker thread count is a pure performance knob — T=1 and
// T=2/4/8 runs of the same configuration are byte-identical, over every
// surface a consumer can observe: WorkloadResult fields and the full
// metrics registry dump. This suite pins that contract on both canonical
// topologies over several seeds, pins the multi-shard T=1 run against the
// one-shard (threads=0) run on every surface, and pins the zero-lookahead
// case, which stays on one shard at any thread count.
//
// On divergence each test writes the expected/actual dumps next to the test
// binary (parallel_<name>.expected.txt / .actual.txt) so CI uploads them as
// artifacts.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "harness/soak.hpp"
#include "harness/workload.hpp"
#include "net/trace_io.hpp"

namespace hsim {
namespace {

const unsigned kThreadMatrix[] = {2, 4, 8};

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Every field of a WorkloadResult a caller can observe, rendered to text.
/// Includes the full registry dump (counters, gauges with peaks, histogram
/// quantiles), so a single perturbed metric anywhere in the stack fails the
/// byte comparison.
std::string workload_fingerprint(const harness::WorkloadResult& r) {
  std::string out;
  out += "events=" + std::to_string(r.events_executed) + "\n";
  out += "completed=" + std::to_string(r.completed()) +
         " failed=" + std::to_string(r.failed()) +
         " resolved=" + std::to_string(r.all_resolved() ? 1 : 0) + "\n";
  out += "bn.packets=" + std::to_string(r.bottleneck.packets) +
         " bn.wire=" + std::to_string(r.bottleneck.wire_bytes) +
         " bn.payload=" + std::to_string(r.bottleneck.payload_bytes) +
         " bn.syns=" + std::to_string(r.bottleneck_syns) +
         " bn.qdrops=" + std::to_string(r.bottleneck_queue_drops) + "\n";
  out += "tcp.retransmits=" + std::to_string(r.tcp_retransmits) + "\n";
  out += "server.conns=" + std::to_string(r.server_connections_total) +
         " max_open=" + std::to_string(r.server_max_open) +
         " open_after_drain=" + std::to_string(r.server_open_after_drain) +
         "\n";
  for (const harness::ClientOutcome& c : r.clients) {
    out += "client " + std::to_string(c.id) +
           " arrival=" + std::to_string(c.arrival) +
           " resolved=" + std::to_string(c.resolved ? 1 : 0) +
           " complete=" + std::to_string(c.complete() ? 1 : 0) +
           " leaked=" + std::to_string(c.leaked_connections) +
           " page=" + hex_double(c.page_seconds()) + "\n";
  }
  for (const harness::QueueSummary& q : r.queues) {
    out += "queue " + q.label + " kind=" + q.kind +
           " enq=" + std::to_string(q.stats.enqueued_packets) +
           " deq=" + std::to_string(q.stats.dequeued_packets) +
           " drop=" + std::to_string(q.stats.dropped()) + "\n";
  }
  out += r.metrics.dump_text();
  return out;
}

void expect_identical(const std::string& expected, const std::string& actual,
                      const std::string& name) {
  if (expected != actual) {
    net::write_file("parallel_" + name + ".expected.txt", expected);
    net::write_file("parallel_" + name + ".actual.txt", actual);
  }
  EXPECT_EQ(expected, actual) << "thread-count divergence in " << name
                              << " (dumps written for CI artifact upload)";
}

harness::WorkloadConfig matrix_workload(harness::TopologyKind topology,
                                        std::uint64_t seed) {
  harness::WorkloadConfig config;
  config.topology = topology;
  config.num_clients = 8;
  config.master_seed = seed;
  config.mean_interarrival = sim::milliseconds(20);
  config.client = harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  return config;
}

void check_workload_matrix(harness::TopologyKind topology, std::uint64_t seed,
                           const std::string& name) {
  harness::WorkloadConfig config = matrix_workload(topology, seed);
  config.threads = 1;
  const std::string base =
      workload_fingerprint(run_workload(config, harness::shared_site()));
  for (unsigned t : kThreadMatrix) {
    config.threads = t;
    const std::string run =
        workload_fingerprint(run_workload(config, harness::shared_site()));
    expect_identical(base, run,
                     name + "_seed" + std::to_string(seed) + "_T" +
                         std::to_string(t));
  }
}

TEST(ParallelDeterminism, StarThreadMatrixByteIdentical) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    check_workload_matrix(harness::TopologyKind::kStar, seed, "star");
  }
}

TEST(ParallelDeterminism, DumbbellThreadMatrixByteIdentical) {
  for (std::uint64_t seed : {1ull, 1337ull}) {
    check_workload_matrix(harness::TopologyKind::kDumbbell, seed, "dumbbell");
  }
}

// The one-shard run (threads=0) and the multi-shard T=1 run agree on every
// surface, the whole registry dump included: no metric may depend on how
// the run was partitioned (a set()-style gauge spanning shards would sum
// one last write per shard in the merge and fail here).
TEST(ParallelDeterminism, ShardedMatchesClassicDriver) {
  for (auto topology :
       {harness::TopologyKind::kStar, harness::TopologyKind::kDumbbell}) {
    harness::WorkloadConfig config = matrix_workload(topology, 5);
    config.threads = 0;
    const std::string classic =
        workload_fingerprint(run_workload(config, harness::shared_site()));
    config.threads = 1;
    const std::string sharded =
        workload_fingerprint(run_workload(config, harness::shared_site()));
    expect_identical(classic, sharded, "classic_vs_sharded");
  }
}

// Access legs with zero propagation delay leave no cross-shard lookahead,
// so every thread count runs the one-shard engine: threads=4 must reproduce
// threads=0 byte for byte — workload fingerprints with the full metrics
// dump and the dumbbell's multi-hop trace.
void zero_delay(net::ChannelConfig& channel) {
  channel.a_to_b.propagation_delay = 0;
  channel.b_to_a.propagation_delay = 0;
}

TEST(ParallelDeterminism, ZeroLookaheadRunsOneShardAtAnyThreadCount) {
  for (auto topology :
       {harness::TopologyKind::kStar, harness::TopologyKind::kDumbbell}) {
    harness::WorkloadConfig config = matrix_workload(topology, 3);
    config.mutate_access = zero_delay;
    ASSERT_LT(harness::workload_lookahead(config), 1);
    const bool dumbbell = topology == harness::TopologyKind::kDumbbell;
    std::string dumps[2];
    std::string hops[2];
    for (unsigned t : {0u, 4u}) {
      net::PacketTrace hop_trace(0);
      config.threads = t;
      config.hop_trace = dumbbell ? &hop_trace : nullptr;
      const harness::WorkloadResult r =
          run_workload(config, harness::shared_site());
      EXPECT_EQ(r.completed(), config.num_clients);
      dumps[t != 0] = workload_fingerprint(r);
      hops[t != 0] = net::trace_to_text(hop_trace.records());
      EXPECT_EQ(hop_trace.records().empty(), !dumbbell);
    }
    const std::string name = dumbbell ? "zero_lookahead_dumbbell"
                                      : "zero_lookahead_star";
    expect_identical(dumps[0], dumps[1], name);
    expect_identical(hops[0], hops[1], name + "_hops");
  }
}

// The epoch hook sees no registry at any thread count: mid-run the metrics
// are split across the shard registries, and one shard's partial view (or a
// scratch merge of all of them) is not the run's.
TEST(ParallelDeterminism, EpochHookRunsWithNoRegistry) {
  for (unsigned t : {0u, 4u}) {
    harness::WorkloadConfig config =
        matrix_workload(harness::TopologyKind::kDumbbell, 9);
    config.num_clients = 4;
    config.threads = t;
    config.horizon = sim::seconds(10);
    config.epoch = sim::seconds(1);
    unsigned epochs = 0;
    unsigned with_registry = 0;
    config.on_epoch = [&] {
      ++epochs;
      if (obs::registry() != nullptr) ++with_registry;
    };
    const harness::WorkloadResult r =
        run_workload(config, harness::shared_site());
    EXPECT_EQ(r.completed(), config.num_clients) << "threads=" << t;
    EXPECT_EQ(epochs, 10u) << "threads=" << t;
    EXPECT_EQ(with_registry, 0u) << "threads=" << t;
  }
}

// The soak harness's conservation oracles walk the live topology at engine
// barriers; they must stay green at T>1 and reach the same verdict and
// counters as the T=1 run.
TEST(ParallelDeterminism, SoakOraclesGreenAcrossThreads) {
  harness::SoakConfig config;
  config.workload.num_clients = 20;
  config.workload.master_seed = 11;
  config.workload.horizon = sim::seconds(30);
  config.workload.drain = sim::seconds(30);
  config.workload.epoch = sim::seconds(2);
  config.workload.client =
      harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  config.timeline = harness::default_soak_timeline();

  config.workload.threads = 1;
  const harness::SoakResult base =
      run_soak(config, harness::shared_site());
  EXPECT_TRUE(base.ok()) << (base.violations.empty()
                                 ? "unresolved client or leak"
                                 : base.violations.front());
  for (unsigned t : {2u, 4u}) {
    config.workload.threads = t;
    const harness::SoakResult run =
        run_soak(config, harness::shared_site());
    EXPECT_TRUE(run.ok()) << "soak oracle violation at T=" << t << ": "
                          << (run.violations.empty()
                                  ? "unresolved client or leak"
                                  : run.violations.front());
    EXPECT_EQ(run.epochs_checked, base.epochs_checked);
    expect_identical(workload_fingerprint(base.workload),
                     workload_fingerprint(run.workload),
                     "soak_T" + std::to_string(t));
  }
}

}  // namespace
}  // namespace hsim
