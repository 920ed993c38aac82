// Chaos-recovery experiment: the retrieval cost of surviving faults.
//
// For every fault regime × protocol mode this runs a full Microscape first
// visit on the WAN profile and reports how the recovery machinery paid for
// it: wall-clock time, wire packets, retries, deadline firings, and whether
// the site arrived byte-exact. The interesting comparison is *across modes*:
// a pipelined HTTP/1.1 client concentrates all requests on one connection,
// so a single fault has a wider blast radius than in HTTP/1.0's four-way
// parallel mode — but it also recovers with far fewer new connections.
#include <cstdio>

#include "harness/chaos.hpp"

int main() {
  using namespace hsim;
  const content::MicroscapeSite& site = harness::shared_site();

  const client::ProtocolMode modes[] = {
      client::ProtocolMode::kHttp10Parallel,
      client::ProtocolMode::kHttp11Persistent,
      client::ProtocolMode::kHttp11Pipelined,
      client::ProtocolMode::kHttp11PipelinedCompressed,
  };

  std::printf("=== Chaos recovery: Microscape first visit, WAN profile ===\n");
  std::printf("%-16s %-34s %7s %8s %7s %7s %9s %6s\n", "Fault", "Mode", "Sec",
              "Packets", "Retries", "Failed", "Deadlines", "Exact");
  std::printf("%s\n", std::string(100, '-').c_str());

  std::vector<harness::ChaosFault> faults = {harness::ChaosFault::kNone};
  const auto injected = harness::all_chaos_faults();
  faults.insert(faults.end(), injected.begin(), injected.end());

  for (const harness::ChaosFault fault : faults) {
    for (const client::ProtocolMode mode : modes) {
      const harness::ChaosOutcome outcome =
          harness::run_chaos(harness::chaos_spec(fault, mode), site);
      const client::RobotStats& robot = outcome.result.robot;
      std::printf("%-16s %-34s %7.2f %8.0f %7zu %7zu %9zu %6s\n",
                  std::string(to_string(fault)).c_str(),
                  std::string(to_string(mode)).c_str(),
                  robot.elapsed_seconds(), outcome.result.packets(),
                  robot.retries, robot.requests_failed,
                  robot.request_deadlines_fired,
                  outcome.byte_exact ? "yes" : "NO");
    }
    std::printf("\n");
  }
  return 0;
}
