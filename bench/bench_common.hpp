// Shared machinery for the table-reproduction benches (Tables 4-9): runs the
// paper's four protocol rows for one server/network combination and prints
// the measured values next to the paper's published ones.
//
// Pa/Bytes/%ov flow out of the per-run metrics registry (see obs/metrics.hpp):
// harness::run_once rebuilds them from the trace.* counters, byte-identical
// to a walk over the trace records. Sec is the robot's own page time
// (RobotStats::elapsed_seconds).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/table.hpp"

namespace hsim::bench {

struct PaperCell {
  double pa = 0, bytes = 0, sec = 0, ov = 0;
};

struct PaperRow {
  const char* label;
  client::ProtocolMode mode;
  PaperCell first;
  PaperCell reval;

  /// Rows for protocols the paper never measured (the h2 extrapolation
  /// column) carry all-zero paper cells and print no "(paper)" line.
  bool has_paper_numbers() const {
    return first.pa != 0 || first.bytes != 0 || first.sec != 0 ||
           first.ov != 0 || reval.pa != 0 || reval.bytes != 0 ||
           reval.sec != 0 || reval.ov != 0;
  }
};

inline void print_network(const harness::NetworkProfile& n) {
  std::printf("Network: %s  (%.0f kbit/s, RTT %.1f ms)\n", n.name.c_str(),
              n.bandwidth_bps / 1000.0, sim::to_milliseconds(n.rtt));
}

/// Runs all rows of one of Tables 4-9 and prints the paper comparison.
inline void run_protocol_table(const std::string& title,
                               const harness::NetworkProfile& network,
                               const server::ServerConfig& server,
                               const std::vector<PaperRow>& rows,
                               unsigned runs = 5) {
  const content::MicroscapeSite& site = harness::shared_site();
  std::printf("=== %s ===\n", title.c_str());
  print_network(network);
  std::printf("Server: %s\n\n", server.server_name.c_str());
  std::printf("%-34s | %28s | %28s\n", "", "First Time Retrieval",
              "Cache Validation");
  std::printf("%-34s | %6s %8s %6s %5s | %6s %8s %6s %5s\n", "Mode", "Pa",
              "Bytes", "Sec", "%ov", "Pa", "Bytes", "Sec", "%ov");
  std::printf("%s\n", std::string(110, '-').c_str());
  for (const PaperRow& row : rows) {
    harness::ExperimentSpec spec;
    spec.network = network;
    spec.server = server;
    spec.client = harness::robot_config(row.mode);

    spec.scenario = harness::Scenario::kFirstVisit;
    const harness::AveragedResult first =
        harness::run_averaged(spec, site, runs);
    spec.scenario = harness::Scenario::kRevalidation;
    const harness::AveragedResult reval =
        harness::run_averaged(spec, site, runs);

    std::printf("%-34s | %6.1f %8.0f %6.2f %5.1f | %6.1f %8.0f %6.2f %5.1f\n",
                row.label, first.packets, first.bytes, first.seconds,
                first.overhead_percent, reval.packets, reval.bytes,
                reval.seconds, reval.overhead_percent);
    if (row.has_paper_numbers()) {
      std::printf(
          "%-34s | %6.1f %8.0f %6.2f %5.1f | %6.1f %8.0f %6.2f %5.1f\n",
          "  (paper)", row.first.pa, row.first.bytes, row.first.sec,
          row.first.ov, row.reval.pa, row.reval.bytes, row.reval.sec,
          row.reval.ov);
    }
  }
  std::printf("\n");
}

inline const PaperRow* find_row(const std::vector<PaperRow>& rows,
                                client::ProtocolMode mode) {
  for (const PaperRow& r : rows) {
    if (r.mode == mode) return &r;
  }
  return nullptr;
}

}  // namespace hsim::bench
