// Does the paper's pipelining win survive modern congestion control?
//
// The headline HTTP/1.1 result (one pipelined connection beats 4-parallel
// HTTP/1.0 on packets and elapsed time) was measured under a 1997-era Reno
// TCP. This experiment reruns the RED-dumbbell contention bench — N = 100
// clients sharing a T1-class bottleneck, the configuration where PR 5 showed
// the pipelining win under contention — once per congestion-control module
// (Reno / NewReno / CUBIC / BBR-lite), with both endpoints of every
// connection switched via WorkloadConfig::cc.
//
// Besides the contention columns, each row reports the aggregate loss
// forensics the CC refactor surfaces through the registry (tcp.cc.*):
// fast-recovery entries, RTO episodes, the dangerous recovery->loss
// transitions, and NewReno-style partial-ACK hole repairs.
//
// Deterministic: one fixed master seed; same seed -> byte-identical table,
// including RED's drop pattern (its own forked stream) and every module's
// window arithmetic (integer/double math on simulated time only).
#include <cstdio>
#include <string>

#include "harness/experiment.hpp"
#include "harness/workload.hpp"
#include "tcp/congestion.hpp"

namespace {
using namespace hsim;

constexpr unsigned kClients = 100;
constexpr std::int64_t kBottleneckBps = 1'544'000;  // T1-class shared pipe

harness::WorkloadConfig base_config(client::ProtocolMode mode,
                                    tcp::CcKind cc) {
  harness::WorkloadConfig cfg;
  cfg.num_clients = kClients;
  cfg.topology = harness::TopologyKind::kDumbbell;
  cfg.arrivals = harness::ArrivalProcess::kPoisson;
  cfg.mean_interarrival = sim::milliseconds(100);
  cfg.access = harness::lan_profile();
  cfg.bottleneck_bandwidth_bps = kBottleneckBps;
  cfg.bottleneck_delay = sim::milliseconds(10);
  cfg.bottleneck_queue_packets = 64;  // tight: contention must be visible
  cfg.bottleneck_queue.kind = topo::QueueDiscKind::kRed;
  cfg.master_seed = 42;

  cfg.server = server::apache_config();
  cfg.server.listen_backlog = 128;
  cfg.server.max_concurrent_connections = 64;
  cfg.server.admission_policy = server::AdmissionPolicy::kQueue;

  cfg.client = harness::robot_config(mode);
  cfg.client.max_attempts = 8;
  cfg.client.retry_backoff = sim::milliseconds(200);
  cfg.client.page_deadline = sim::seconds(420);
  cfg.client.retry_server_errors = true;
  cfg.client.tcp.cc = cc;
  cfg.server.tcp.cc = cc;
  return cfg;
}

void run_row(tcp::CcKind cc, client::ProtocolMode mode) {
  const harness::WorkloadResult r =
      harness::run_workload(base_config(mode, cc), harness::shared_site());

  std::uint64_t drops = 0;
  for (const harness::QueueSummary& q : r.queues) drops += q.stats.dropped();
  std::printf(
      "%-8s | %-12s | %7.2fs | %8llu | %7llu | %6llu | %6.2f | %6.2f | "
      "%6.4f | %4u/%-4u | %5llu | %4llu | %5llu | %6llu\n",
      std::string(to_string(cc)).c_str(),
      std::string(to_string(mode)).c_str(), r.bottleneck.elapsed_seconds(),
      static_cast<unsigned long long>(r.bottleneck.packets),
      static_cast<unsigned long long>(r.tcp_retransmits),
      static_cast<unsigned long long>(drops), r.median_page_seconds(),
      r.p95_page_seconds(), r.jain_fairness_index(), r.completed(), kClients,
      static_cast<unsigned long long>(
          r.metrics.counter("tcp.cc.enter_recovery")),
      static_cast<unsigned long long>(r.metrics.counter("tcp.cc.enter_loss")),
      static_cast<unsigned long long>(
          r.metrics.counter("tcp.cc.recovery_to_loss")),
      static_cast<unsigned long long>(
          r.metrics.counter("tcp.cc.partial_ack_retransmits")));
  if (!r.all_resolved() || r.server_open_after_drain != 0) {
    std::printf("  !! anomaly: resolved=%s leaked_server_conns=%zu\n",
                r.all_resolved() ? "yes" : "NO", r.server_open_after_drain);
  }
}

}  // namespace

int main() {
  std::printf("=== CC x pipelining: the paper's win under modern congestion "
              "control ===\n");
  std::printf(
      "N = %u clients, %.3f Mbit/s shared dumbbell bottleneck, RED queue\n"
      "(64 packets/direction). Both endpoints of every connection run the\n"
      "row's CC module. Rec/Loss/R->L/PAretx are the aggregate tcp.cc.*\n"
      "loss-forensics counters (fast-recovery entries, RTO episodes,\n"
      "recovery->loss transitions, partial-ACK hole repairs).\n\n",
      kClients, static_cast<double>(kBottleneckBps) / 1e6);
  std::printf(
      "%-8s | %-12s | %8s | %8s | %7s | %6s | %6s | %6s | %6s | %9s | "
      "%5s | %4s | %5s | %6s\n",
      "CC", "Mode", "Elapsed", "Packets", "Retrans", "Drops", "MedSec",
      "p95Sec", "Jain", "Done", "Rec", "Loss", "R->L", "PAretx");
  std::printf("%s\n", std::string(132, '-').c_str());
  for (const tcp::CcKind cc : tcp::kAllCcKinds) {
    run_row(cc, client::ProtocolMode::kHttp10Parallel);
    run_row(cc, client::ProtocolMode::kHttp11Pipelined);
  }
  return 0;
}
