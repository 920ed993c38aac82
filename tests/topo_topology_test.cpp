// Topology-level properties: dumbbell workload determinism, multi-hop trace
// capture and the v2 trace format round-trip.
//
// The dumbbell is the contention path of harness::run_workload; its whole
// value rests on reproducibility (same master seed -> identical run,
// including RED's drop draws and every router's forwarding order) and on
// the hop records being a faithful per-router view of the same packets the
// bottleneck tap counted once.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/workload.hpp"
#include "net/trace_io.hpp"

namespace hsim {
namespace {

harness::WorkloadConfig small_dumbbell(std::uint64_t seed,
                                       topo::QueueDiscKind qdisc) {
  harness::WorkloadConfig cfg;
  cfg.num_clients = 6;
  cfg.topology = harness::TopologyKind::kDumbbell;
  cfg.bottleneck_queue.kind = qdisc;
  cfg.arrivals = harness::ArrivalProcess::kPoisson;
  cfg.mean_interarrival = sim::milliseconds(20);
  cfg.access = harness::lan_profile();
  cfg.bottleneck_bandwidth_bps = 2'000'000;
  cfg.bottleneck_delay = sim::milliseconds(10);
  cfg.bottleneck_queue_packets = 32;  // tight enough to see drops
  cfg.master_seed = seed;
  cfg.server = server::apache_config();
  cfg.client = harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  return cfg;
}

/// The comparable essence of a run: every deterministic output we publish.
std::string fingerprint(const harness::WorkloadResult& r) {
  std::string out;
  out += std::to_string(r.bottleneck.packets) + "/" +
         std::to_string(r.bottleneck.wire_bytes) + "/" +
         std::to_string(r.tcp_retransmits) + "/" +
         std::to_string(r.bottleneck_queue_drops) + "/" +
         std::to_string(r.bottleneck_syns);
  for (const harness::ClientOutcome& c : r.clients) {
    out += ';';
    out += std::to_string(c.complete()) + ":" +
           std::to_string(c.stats.started) + "-" +
           std::to_string(c.stats.finished) + ":" +
           std::to_string(c.stats.retries);
  }
  for (const harness::QueueSummary& q : r.queues) {
    out += ";" + q.label + "=" + std::to_string(q.stats.enqueued_packets) +
           "," + std::to_string(q.stats.dropped()) + "," +
           std::to_string(q.stats.peak_depth_packets);
  }
  return out;
}

TEST(DumbbellWorkload, SameSeedIsByteIdentical) {
  for (const topo::QueueDiscKind qdisc :
       {topo::QueueDiscKind::kDropTail, topo::QueueDiscKind::kRed}) {
    const harness::WorkloadResult a =
        harness::run_workload(small_dumbbell(7, qdisc), harness::shared_site());
    const harness::WorkloadResult b =
        harness::run_workload(small_dumbbell(7, qdisc), harness::shared_site());
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    EXPECT_EQ(a.completed(), 6u);
  }
}

TEST(DumbbellWorkload, ReportsBottleneckQueues) {
  const harness::WorkloadResult r = harness::run_workload(
      small_dumbbell(7, topo::QueueDiscKind::kRed), harness::shared_site());
  ASSERT_EQ(r.queues.size(), 2u);
  EXPECT_EQ(r.queues[0].label, "bn.up");
  EXPECT_EQ(r.queues[1].label, "bn.down");
  for (const harness::QueueSummary& q : r.queues) {
    EXPECT_EQ(q.kind, "red");
    EXPECT_EQ(q.stats.offered_packets,
              q.stats.enqueued_packets + q.stats.dropped());
  }
  // All queue-discipline drops roll up into the published drop figure.
  std::uint64_t disc_drops = 0;
  for (const harness::QueueSummary& q : r.queues) {
    disc_drops += q.stats.dropped();
  }
  EXPECT_EQ(r.bottleneck_queue_drops, disc_drops);
}

TEST(DumbbellWorkload, HopTraceSeesEveryPacketAtBothRouters) {
  harness::WorkloadConfig cfg = small_dumbbell(3, topo::QueueDiscKind::kDropTail);
  cfg.num_clients = 2;
  net::PacketTrace hop_trace(/*client_addr=*/1);
  cfg.hop_trace = &hop_trace;
  const harness::WorkloadResult r =
      harness::run_workload(cfg, harness::shared_site());
  ASSERT_EQ(r.completed(), 2u);

  const std::vector<net::TraceRecord>& records = hop_trace.records();
  ASSERT_FALSE(records.empty());
  EXPECT_TRUE(net::trace_has_hops(records));

  // Group by hop: exactly the two dumbbell routers, each having seen every
  // *forwarded* packet once (drops never produce hop records).
  const std::vector<net::HopSummary> hops =
      net::summarize_by_hop(records, /*client_addr=*/1);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0].hop_router, 1);  // gate
  EXPECT_EQ(hops[1].hop_router, 2);  // core
  EXPECT_GT(hops[0].summary.packets, 0u);
  EXPECT_GT(hops[1].summary.packets, 0u);
}

TEST(TraceFormats, HopRecordsRoundTripThroughTextAndBinary) {
  harness::WorkloadConfig cfg = small_dumbbell(5, topo::QueueDiscKind::kDropTail);
  cfg.num_clients = 2;
  net::PacketTrace hop_trace(1);
  cfg.hop_trace = &hop_trace;
  harness::run_workload(cfg, harness::shared_site());
  const std::vector<net::TraceRecord>& records = hop_trace.records();
  ASSERT_TRUE(net::trace_has_hops(records));

  // v2 text round-trip.
  const std::string text = net::trace_to_text(records);
  EXPECT_EQ(text.rfind("# hsim-trace v2", 0), 0u);
  std::vector<net::TraceRecord> from_text;
  std::string error;
  ASSERT_TRUE(net::trace_from_text(text, &from_text, &error)) << error;
  ASSERT_EQ(from_text.size(), records.size());
  EXPECT_TRUE(net::diff_traces(records, from_text).identical);

  // v2 binary round-trip.
  const std::vector<std::uint8_t> blob = net::trace_to_binary(records);
  std::vector<net::TraceRecord> from_binary;
  ASSERT_TRUE(net::trace_from_binary(blob, &from_binary, &error)) << error;
  ASSERT_EQ(from_binary.size(), records.size());
  EXPECT_TRUE(net::diff_traces(records, from_binary).identical);

  // File-level round-trip: load_trace_file must sniff both v2 formats.
  for (const char* path :
       {"topo_v2_roundtrip.text.trace", "topo_v2_roundtrip.bin.trace"}) {
    const bool is_binary = std::string(path).find(".bin.") != std::string::npos;
    ASSERT_TRUE(is_binary ? net::write_file(path, blob)
                          : net::write_file(path, text));
    std::vector<net::TraceRecord> loaded;
    ASSERT_TRUE(net::load_trace_file(path, &loaded, &error)) << path << ": "
                                                             << error;
    EXPECT_TRUE(net::diff_traces(records, loaded).identical) << path;
    std::remove(path);
  }
}

}  // namespace
}  // namespace hsim
