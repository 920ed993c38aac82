// The benchmark's named workloads and one repetition of each.
//
// Every workload is a batch job: a repetition runs the workload's simulation
// calls once through the public harness entry points (run_workload or a
// run_once sweep) on the shared Microscape site, checks the outputs, and
// returns wall/CPU time, the deterministic fingerprint and the registry
// counts the per-layer report needs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "harness/workload.hpp"

namespace perfbench {

/// Deterministic outputs of one repetition. Equal inputs must give equal
/// fingerprints: across repetitions, reruns, and thread counts.
struct Fingerprint {
  std::uint64_t events = 0;       // sim.events (0 where the entry point
                                  // does not report it: run_once)
  std::uint64_t packets = 0;      // net.link.packets_sent
  std::uint64_t retransmits = 0;  // tcp.retransmits
  std::uint64_t h2_frames = 0;    // every h2 frame any session sent
  std::uint64_t completed = 0;    // pages (or cells) completed byte-complete

  std::string text() const;
  /// FNV-1a 64 of text(), as 16 hex digits.
  std::string hex() const;
  bool operator==(const Fingerprint&) const = default;
};

/// One repetition's measurements and checks.
struct Rep {
  double wall_s = 0;   // simulation calls only; setup is never inside
  double cpu_s = 0;    // process user+sys CPU over the same window
  std::uint64_t pages = 0;  // pages (paper-tables: cells) attempted
  std::vector<double> cell_ms;  // wall ms of each simulation call
  Fingerprint fp;
  std::map<std::string, double> counts;  // registry counts (see .cpp)
  std::vector<std::string> errors;       // failed correctness checks
  double active_sim_s = 0;  // simulated time until the last page finished

  // Traced repetitions only.
  double simulate_s = 0;  // harness entry -> metrics_sink
  double teardown_s = 0;  // metrics_sink -> return
  std::vector<double> wall_ms_per_sim_s;  // one per active simulated second
};

struct RepOptions {
  std::uint64_t seed = 42;
  bool traced = false;
  Spans* spans = nullptr;  // required when traced
  std::size_t parent = Spans::kNoParent;
};

bool is_workload(const std::string& name);

/// Simulated events the traced repetition adds (one per epoch firing).
std::uint64_t epoch_events(const std::string& workload);

/// The harness config a fleet workload runs (not defined for paper-tables).
hsim::harness::WorkloadConfig fleet_config(const std::string& workload,
                                           std::uint64_t seed);

Rep run_rep(const std::string& workload, const RepOptions& options);

}  // namespace perfbench
