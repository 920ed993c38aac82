// Layer replays for the traced run: each times one module's public API on
// inputs sized to the workload's own counts (pending-queue depth, mean packet
// size, bottleneck depth, frame mix, ...). The time includes whatever the
// called module calls in turn. A layer that does no work in the workload
// reports 0 rather than a replay of traffic the workload never carries.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common.hpp"

namespace perfbench {

struct ReplayInputs {
  std::string workload;
  std::uint64_t seed = 42;
  unsigned pages = 0;                    // pages (cells) per repetition
  std::map<std::string, double> counts;  // an untraced repetition's counts
  double active_sim_s = 0;
};

/// Runs every replay, adding its spans under `parent` and its metrics
/// (the T rows of the per-layer table) to `out`.
void run_replays(const ReplayInputs& in, Spans& spans, std::size_t parent,
                 MetricTable& out);

}  // namespace perfbench
