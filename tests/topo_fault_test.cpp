// Topology-level fault injection (topo subsystem + soak harness).
//
// Contracts pinned here:
//   - A router crash flushes every queued packet with attribution and halts
//     forwarding; restart resumes with empty buffers; the queue-discipline
//     conservation identity (enqueued == dequeued + dropped_flushed + depth)
//     holds at every stage.
//   - A wedged egress keeps accepting into its discipline until the budget
//     overflows, never feeds the link, and drains completely on unwedge.
//   - Forwarding-table failover is deterministic and traffic-clocked: the
//     primary must be observed down for the detection delay before traffic
//     moves, and observed healthy again for the same delay before it moves
//     back. Two identical runs produce identical delivery counts.
//   - Malformed outage schedules (empty or overlapping windows) are rejected
//     at link construction with std::invalid_argument.
//   - A small-N chaos soak over the redundant dumbbell runs green under the
//     sanitizers and is bit-deterministic for a given master seed.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "harness/experiment.hpp"
#include "harness/soak.hpp"
#include "net/link.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "topo/queue_disc.hpp"
#include "topo/router.hpp"

namespace hsim {
namespace {

net::Packet make_packet(net::IpAddr dst, std::size_t payload_bytes) {
  net::Packet p;
  p.src = 1;
  p.dst = dst;
  p.payload = buf::Bytes(std::string(payload_bytes, 'x'));
  return p;
}

struct CountingSink : net::PacketSink {
  std::uint64_t delivered = 0;
  void deliver(net::Packet) override { ++delivered; }
};

/// A slow 1 Mb/s link so packets queue up in the discipline behind it.
std::unique_ptr<net::Link> slow_link(sim::EventQueue& queue) {
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 1'000'000;
  cfg.propagation_delay = sim::milliseconds(1);
  return std::make_unique<net::Link>(queue, cfg, sim::Rng(1));
}

// ---------------------------------------------------------------------------
// Router crash / restart
// ---------------------------------------------------------------------------

TEST(RouterCrash, FlushesQueuedPacketsWithAttribution) {
  sim::EventQueue queue;
  CountingSink sink;
  auto link = slow_link(queue);
  link->set_sink(&sink);

  topo::Router router(queue, 1, "r");
  const std::size_t egress = router.add_egress(
      link.get(), std::make_unique<topo::DropTail>(
                      "q", topo::DropTailConfig{/*limit_packets=*/64,
                                                /*limit_bytes=*/0}));
  router.set_default_route(egress);

  // 20 packets of 1000 B at 1 Mb/s: ~8 ms each, so most still queued when
  // the crash lands at t=5ms.
  for (int i = 0; i < 20; ++i) router.deliver(make_packet(9, 1000));
  queue.schedule_at(sim::milliseconds(5), [&] { router.crash(); });
  // Arrivals while down are dropped with attribution, not queued.
  queue.schedule_at(sim::milliseconds(6),
                    [&] { router.deliver(make_packet(9, 1000)); });
  queue.schedule_at(sim::milliseconds(10), [&] { router.restart(); });
  // Forwarding resumes after restart.
  queue.schedule_at(sim::milliseconds(11),
                    [&] { router.deliver(make_packet(9, 1000)); });
  queue.run_until(sim::seconds(1));

  const topo::RouterStats& rs = router.stats();
  EXPECT_TRUE(!router.crashed());
  EXPECT_GT(rs.crash_flushed, 0u);
  EXPECT_EQ(rs.dropped_crashed, 1u);
  EXPECT_EQ(rs.forwarded, 21u);  // 20 before the crash + 1 after restart

  const topo::QueueStats& qs = router.egress_queue(egress).stats();
  EXPECT_EQ(qs.dropped_flushed, rs.crash_flushed);
  EXPECT_EQ(qs.enqueued_packets,
            qs.dequeued_packets + qs.dropped_flushed +
                router.egress_queue(egress).depth_packets());
  // Everything dequeued before the crash (plus the post-restart packet)
  // crossed the wire.
  EXPECT_EQ(sink.delivered, qs.dequeued_packets);
  EXPECT_EQ(qs.dequeued_packets + qs.dropped_flushed, 21u);
}

TEST(RouterCrash, CrashIsIdempotent) {
  sim::EventQueue queue;
  CountingSink sink;
  auto link = slow_link(queue);
  link->set_sink(&sink);
  topo::Router router(queue, 1, "r");
  router.set_default_route(router.add_egress(
      link.get(), std::make_unique<topo::DropTail>(
                      "q", topo::DropTailConfig{64, 0})));
  for (int i = 0; i < 5; ++i) router.deliver(make_packet(9, 1000));
  router.crash();
  const std::uint64_t flushed = router.stats().crash_flushed;
  router.crash();  // no double flush
  EXPECT_EQ(router.stats().crash_flushed, flushed);
  router.restart();
  router.restart();  // no-op
  EXPECT_FALSE(router.crashed());
}

// ---------------------------------------------------------------------------
// Queue wedge
// ---------------------------------------------------------------------------

TEST(QueueWedge, FillsOverflowsThenDrains) {
  sim::EventQueue queue;
  CountingSink sink;
  auto link = slow_link(queue);
  link->set_sink(&sink);

  topo::Router router(queue, 1, "r");
  const std::size_t egress = router.add_egress(
      link.get(), std::make_unique<topo::DropTail>(
                      "q", topo::DropTailConfig{/*limit_packets=*/8,
                                                /*limit_bytes=*/0}));
  router.set_default_route(egress);
  router.set_egress_wedged(egress, true);

  for (int i = 0; i < 20; ++i) router.deliver(make_packet(9, 500));
  queue.run_until(sim::milliseconds(100));

  // Wedged: the discipline accepted to its budget, overflowed the rest, and
  // the link never transmitted a thing.
  const topo::QueueStats& qs = router.egress_queue(egress).stats();
  EXPECT_EQ(router.egress_queue(egress).depth_packets(), 8u);
  EXPECT_EQ(qs.dropped_overflow, 12u);
  EXPECT_EQ(link->stats().packets_sent, 0u);
  EXPECT_EQ(sink.delivered, 0u);
  EXPECT_TRUE(router.egress_wedged(egress));

  router.set_egress_wedged(egress, false);
  queue.run_until(sim::seconds(1));
  EXPECT_EQ(sink.delivered, 8u);
  EXPECT_EQ(router.egress_queue(egress).depth_packets(), 0u);
  EXPECT_EQ(qs.enqueued_packets,
            qs.dequeued_packets + qs.dropped_flushed);
}

// ---------------------------------------------------------------------------
// Deterministic failover / failback
// ---------------------------------------------------------------------------

struct FailoverRun {
  std::uint64_t primary_sent = 0;
  std::uint64_t backup_sent = 0;
  std::uint64_t primary_outage_drops = 0;
  std::uint64_t failovers = 0;
  std::uint64_t failbacks = 0;
  std::uint64_t delivered = 0;
};

FailoverRun drive_failover() {
  sim::EventQueue queue;
  CountingSink sink;

  net::LinkConfig primary_cfg;
  primary_cfg.bandwidth_bps = 10'000'000;
  primary_cfg.propagation_delay = sim::milliseconds(1);
  primary_cfg.outages.push_back(
      {sim::milliseconds(100), sim::milliseconds(400)});
  net::Link primary(queue, primary_cfg, sim::Rng(1));
  primary.set_sink(&sink);

  net::LinkConfig backup_cfg;
  backup_cfg.bandwidth_bps = 10'000'000;
  backup_cfg.propagation_delay = sim::milliseconds(2);
  net::Link backup(queue, backup_cfg, sim::Rng(2));
  backup.set_sink(&sink);

  topo::Router router(queue, 1, "r");
  const std::size_t p = router.add_egress(
      &primary,
      std::make_unique<topo::DropTail>("p", topo::DropTailConfig{64, 0}));
  const std::size_t b = router.add_egress(
      &backup,
      std::make_unique<topo::DropTail>("b", topo::DropTailConfig{64, 0}));
  router.set_default_route(p);
  router.set_failover(p, b, sim::milliseconds(50));

  // One packet every 20 ms for 800 ms: the outage covers [100, 400), so the
  // detection window costs a couple of packets into the dead primary, then
  // traffic rides the backup until 400 + 50 ms of observed health.
  for (int i = 0; i < 40; ++i) {
    queue.schedule_at(sim::milliseconds(20) * i,
                      [&] { router.deliver(make_packet(9, 200)); });
  }
  queue.run_until(sim::seconds(2));

  FailoverRun out;
  out.primary_sent = primary.stats().packets_sent;
  out.backup_sent = backup.stats().packets_sent;
  out.primary_outage_drops = primary.stats().packets_dropped_outage;
  out.failovers = router.stats().failovers;
  out.failbacks = router.stats().failbacks;
  out.delivered = sink.delivered;
  return out;
}

TEST(Failover, DetectsReroutesAndFailsBack) {
  const FailoverRun run = drive_failover();
  EXPECT_EQ(run.failovers, 1u);
  EXPECT_EQ(run.failbacks, 1u);
  // Detection is not free: at least one packet died on the down primary.
  EXPECT_GT(run.primary_outage_drops, 0u);
  // The backup genuinely carried traffic during the outage.
  EXPECT_GT(run.backup_sent, 0u);
  // Traffic returned to the primary after recovery: the primary carried
  // packets both before the outage and after failback.
  EXPECT_GT(run.primary_sent, run.primary_outage_drops);
  // Conservation: every offered packet was sent somewhere or died on the
  // down primary.
  EXPECT_EQ(run.primary_sent + run.backup_sent + run.primary_outage_drops,
            40u);
  EXPECT_EQ(run.delivered, run.primary_sent + run.backup_sent);
}

TEST(Failover, SameScheduleIsBitDeterministic) {
  const FailoverRun a = drive_failover();
  const FailoverRun b = drive_failover();
  EXPECT_EQ(a.primary_sent, b.primary_sent);
  EXPECT_EQ(a.backup_sent, b.backup_sent);
  EXPECT_EQ(a.primary_outage_drops, b.primary_outage_drops);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.failbacks, b.failbacks);
  EXPECT_EQ(a.delivered, b.delivered);
}

// ---------------------------------------------------------------------------
// Outage schedule validation
// ---------------------------------------------------------------------------

TEST(OutageSchedule, RejectsEmptyWindow) {
  std::vector<net::OutageWindow> windows = {{sim::seconds(1), sim::seconds(1)}};
  EXPECT_THROW(net::normalize_outages(windows), std::invalid_argument);
}

TEST(OutageSchedule, RejectsOverlappingWindows) {
  std::vector<net::OutageWindow> windows = {
      {sim::seconds(1), sim::seconds(3)},
      {sim::seconds(2), sim::seconds(4)},
  };
  EXPECT_THROW(net::normalize_outages(windows), std::invalid_argument);
}

TEST(OutageSchedule, SortsOutOfOrderWindows) {
  std::vector<net::OutageWindow> windows = {
      {sim::seconds(5), sim::seconds(6)},
      {sim::seconds(1), sim::seconds(2)},
  };
  net::normalize_outages(windows);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].down_at, sim::seconds(1));
  EXPECT_EQ(windows[1].down_at, sim::seconds(5));
}

TEST(OutageSchedule, LinkConstructionRejectsOverlap) {
  sim::EventQueue queue;
  net::LinkConfig cfg;
  cfg.outages = {{sim::seconds(1), sim::seconds(3)},
                 {sim::seconds(2), sim::seconds(4)}};
  EXPECT_THROW(net::Link(queue, cfg, sim::Rng(1)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Small-N soak: sanitizer coverage + determinism
// ---------------------------------------------------------------------------

harness::SoakConfig small_soak_config() {
  harness::SoakConfig config;
  harness::WorkloadConfig& wc = config.workload;
  wc.num_clients = 8;
  wc.client = harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  wc.client.retry_budget = 6;
  wc.client.retry_jitter = 0.3;
  wc.epoch = sim::milliseconds(500);
  wc.horizon = sim::seconds(60);
  wc.drain = sim::seconds(30);
  wc.verify_cache = true;
  wc.master_seed = 11;
  // Pages finish within a few seconds at N=8, so the faults are compressed
  // to land mid-retrieval.
  config.timeline = {
      {harness::TopoFaultKind::kBottleneckFlap, "", sim::milliseconds(500),
       sim::milliseconds(700)},
      {harness::TopoFaultKind::kRouterCrash, "gate", sim::milliseconds(1800),
       sim::milliseconds(300)},
      {harness::TopoFaultKind::kQueueWedge, "bnA.up", sim::milliseconds(2500),
       sim::milliseconds(500)},
  };
  return config;
}

TEST(SmallSoak, OraclesGreenEveryClientAttributed) {
  const harness::SoakResult result =
      harness::run_soak(small_soak_config(), harness::shared_site());
  for (const std::string& v : result.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(result.ok());
  EXPECT_GT(result.epochs_checked, 0u);
  EXPECT_TRUE(result.workload.all_resolved());
  // The crash genuinely hit the data path.
  EXPECT_GT(result.workload.metrics.counter("topo.router.crash_flushed") +
                result.workload.metrics.counter("topo.router.dropped_crashed"),
            0u);
}

TEST(SmallSoak, RejectsStarTopologyAndOwnedHooks) {
  harness::SoakConfig star = small_soak_config();
  star.workload.topology = harness::TopologyKind::kStar;
  EXPECT_THROW(harness::run_soak(star, harness::shared_site()),
               std::invalid_argument);

  harness::SoakConfig hooked = small_soak_config();
  hooked.workload.on_epoch = [] {};
  EXPECT_THROW(harness::run_soak(hooked, harness::shared_site()),
               std::invalid_argument);
}

TEST(SmallSoak, SameSeedSameResult) {
  const harness::SoakResult a =
      harness::run_soak(small_soak_config(), harness::shared_site());
  const harness::SoakResult b =
      harness::run_soak(small_soak_config(), harness::shared_site());
  EXPECT_EQ(a.workload.completed(), b.workload.completed());
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retry_tokens_consumed, b.retry_tokens_consumed);
  EXPECT_EQ(a.workload.metrics.dump_text(), b.workload.metrics.dump_text());
}

}  // namespace
}  // namespace hsim
