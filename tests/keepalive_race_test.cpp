// The keep-alive race, promoted from examples/proxy_keepalive_trap.cpp's
// family of hazards into a regression test: a request that arrives just as
// the server's idle_timeout fires must be retried cleanly by the client —
// never silently lost.
//
// The server's idle timeout is swept in 1 ms steps across the client's
// natural think-time window, so somewhere in the sweep the server's
// FIN (graceful close) or RST (naive close) crosses an in-flight request on
// the wire. Every run must still complete byte-exact, and the robot's
// retry partition from the failure-recovery work must attribute the races:
// graceful closes surface as retries_after_close, naive closes as
// retries_after_reset. The server runs with the admission machinery engaged
// (max_concurrent_connections=1, kQueue) so the race exercises the new
// admission paths too.
#include <gtest/gtest.h>

#include "harness/chaos.hpp"
#include "harness/experiment.hpp"

namespace hsim {
namespace {

struct SweepOutcome {
  unsigned runs = 0;
  unsigned complete = 0;
  unsigned byte_exact = 0;
  std::size_t retries_after_close = 0;
  std::size_t retries_after_reset = 0;
};

SweepOutcome sweep_idle_timeout(server::CloseStyle style,
                                client::ProtocolMode mode) {
  SweepOutcome out;
  // The robot pays ~5 ms of client CPU per response, so server idle windows
  // of a few milliseconds guarantee closes between requests; sweeping in
  // 1 ms steps lands the close on top of an in-flight request somewhere.
  for (int ms = 2; ms <= 30; ++ms) {
    harness::ExperimentSpec spec;
    spec.network = harness::lan_profile();
    spec.server = server::apache_config();
    spec.server.idle_timeout = sim::milliseconds(ms);
    spec.server.close_style = style;
    spec.server.listen_backlog = 8;
    spec.server.max_concurrent_connections = 1;
    spec.server.admission_policy = server::AdmissionPolicy::kQueue;
    spec.client = harness::robot_config(mode);
    spec.client.max_attempts = 8;
    spec.seed = 21;

    bool byte_exact = false;
    spec.inspect_robot = [&byte_exact](client::Robot& robot) {
      byte_exact =
          harness::cache_matches_site(robot.cache(), harness::shared_site());
    };
    const harness::RunResult res =
        harness::run_once(spec, harness::shared_site());

    ++out.runs;
    if (res.robot.complete) ++out.complete;
    if (byte_exact) ++out.byte_exact;
    out.retries_after_close += res.robot.retries_after_close;
    out.retries_after_reset += res.robot.retries_after_reset;

    EXPECT_TRUE(res.robot.complete)
        << "idle_timeout " << ms << " ms: page did not complete ("
        << res.robot.requests_failed << " failed requests)";
    EXPECT_TRUE(byte_exact)
        << "idle_timeout " << ms << " ms: cache not byte-exact";
  }
  return out;
}

TEST(KeepAliveRace, GracefulCloseRaceIsRetriedNeverLost) {
  const SweepOutcome out =
      sweep_idle_timeout(server::CloseStyle::kGraceful,
                         client::ProtocolMode::kHttp11Persistent);
  EXPECT_EQ(out.complete, out.runs);
  EXPECT_EQ(out.byte_exact, out.runs);
  // The sweep must actually exercise the race: at least one run re-issued a
  // request after the lane died under it with a FIN.
  EXPECT_GE(out.retries_after_close, 1u)
      << "sweep never hit the FIN-crosses-request race; widen the sweep";
}

TEST(KeepAliveRace, NaiveCloseRaceIsRetriedNeverLost) {
  // The RST side of the partition needs pipelining: a naive closer's RST is
  // sent immediately and overtakes response bytes still queued behind the
  // congestion window, so the client sees the RST before the FIN — exactly
  // the paper's pipelining-close diagnosis. (In persistent mode the FIN
  // always arrives first and the race lands on the close side.)
  const SweepOutcome out =
      sweep_idle_timeout(server::CloseStyle::kNaive,
                         client::ProtocolMode::kHttp11Pipelined);
  EXPECT_EQ(out.complete, out.runs);
  EXPECT_EQ(out.byte_exact, out.runs);
  EXPECT_GE(out.retries_after_reset, 1u)
      << "sweep never hit the RST-crosses-request race; widen the sweep";
}

}  // namespace
}  // namespace hsim
