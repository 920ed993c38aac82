// End-to-end chaos suite: a full Microscape first visit under every fault
// regime, crossed with all four protocol modes. The contract under chaos is
// "resolve, never hang": either the recovery machinery delivers the whole
// site byte-exactly within its bounded retries, or the run terminates with
// structured failures attributing the responsible fault. Fixed seeds make
// every outcome reproducible.
//
// The star-substrate tests also re-run under each ChaosVariant: every other
// congestion-control module on both endpoints, and the 3g-drive netem profile
// on the access path. The fault machinery must compose with all of them.
#include "harness/chaos.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>
#include <tuple>

namespace hsim {
namespace {

using client::ProtocolMode;
using harness::ChaosFault;

constexpr std::uint64_t kSeed = 7;

/// A run setting the chaos experiment is repeated under. kDefault (Reno,
/// static links) is the legacy byte-exact run.
struct ChaosVariant {
  const char* name;
  tcp::CcKind cc;
  const char* profile;
};
constexpr ChaosVariant kDefault{"reno", tcp::CcKind::kReno, ""};
constexpr ChaosVariant kNewReno{"newreno", tcp::CcKind::kNewReno, ""};
constexpr ChaosVariant kCubic{"cubic", tcp::CcKind::kCubic, ""};
constexpr ChaosVariant kBbr{"bbr", tcp::CcKind::kBbrLite, ""};
constexpr ChaosVariant k3gDrive{"3g-drive", tcp::CcKind::kReno, "3g-drive"};
constexpr ChaosVariant kVariants[] = {kDefault, kNewReno, kCubic, kBbr,
                                      k3gDrive};

// Test listings print a variant by its name.
void PrintTo(const ChaosVariant& variant, std::ostream* os) {
  *os << variant.name;
}

harness::ChaosOutcome run_variant(ChaosFault fault, ProtocolMode mode,
                                  std::uint64_t seed,
                                  const ChaosVariant& variant) {
  harness::ExperimentSpec spec = harness::chaos_spec(fault, mode, seed);
  spec.client.tcp.cc = variant.cc;
  spec.server.tcp.cc = variant.cc;
  spec.profile = variant.profile;
  return harness::run_chaos(spec, harness::shared_site());
}

class ChaosSuite
    : public ::testing::TestWithParam<
          std::tuple<ChaosFault, ProtocolMode, ChaosVariant>> {};

TEST_P(ChaosSuite, ResolvesByteExactOrCleanlyAttributed) {
  const auto [fault, mode, variant] = GetParam();
  const harness::ChaosOutcome outcome =
      run_variant(fault, mode, kSeed, variant);
  const client::RobotStats& robot = outcome.result.robot;

  // Never a hang: the retrieval reached a verdict inside the run horizon.
  ASSERT_GT(robot.finished, robot.started)
      << to_string(fault) << " / " << to_string(mode);

  if (robot.complete) {
    // Full success: every object must be byte-identical to the source site.
    EXPECT_TRUE(outcome.byte_exact);
    EXPECT_EQ(robot.requests_failed, 0u);
    EXPECT_TRUE(robot.failures.empty());
  } else {
    // Clean failure: every abandoned request carries an attributed cause
    // and a retry count that respected the attempt budget.
    EXPECT_GT(robot.requests_failed, 0u);
    EXPECT_EQ(robot.requests_failed, robot.failures.size());
    for (const client::RequestFailure& failure : robot.failures) {
      EXPECT_FALSE(failure.target.empty());
      EXPECT_LE(failure.attempts, 8u);  // apply_chaos's max_attempts
      EXPECT_FALSE(std::string(to_string(failure.kind)).empty());
    }
  }

  // Per-regime observability: the injected fault actually bit, and the
  // matching layer counted it.
  const server::ServerStats& server = outcome.result.server;
  const net::TraceSummary& trace = outcome.result.trace;
  switch (fault) {
    case ChaosFault::kServerStall:
      EXPECT_GE(server.stalls_injected, 1u);
      EXPECT_GE(robot.request_deadlines_fired, 1u);
      break;
    case ChaosFault::kPrematureClose:
      EXPECT_GE(server.premature_closes_injected, 1u);
      EXPECT_GT(robot.retries, 0u);
      break;
    case ChaosFault::kServerErrors:
      EXPECT_GE(server.responses_5xx, 1u);
      break;
    default:
      break;  // link faults are asserted via link stats in run_chaos users
  }
  EXPECT_GT(trace.packets, 0u);
}

// Test-name suffix from the fault and the mode, e.g. BurstLossHTTP10; the
// instantiation prefix names the variant.
const auto param_name = [](const auto& info) {
  std::string name(to_string(std::get<0>(info.param)));
  name += "_";
  name += to_string(std::get<1>(info.param));
  std::string out;
  bool upper = true;
  for (const char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += upper ? static_cast<char>(std::toupper(c)) : c;
      upper = false;
    } else {
      upper = true;
    }
  }
  return out;
};

constexpr ProtocolMode kAllModes[] = {
    ProtocolMode::kHttp10Parallel, ProtocolMode::kHttp11Persistent,
    ProtocolMode::kHttp11Pipelined, ProtocolMode::kHttp11PipelinedCompressed,
    ProtocolMode::kH2};

auto all_faults_all_modes(const ChaosVariant& variant) {
  return ::testing::Combine(::testing::ValuesIn(harness::all_chaos_faults()),
                            ::testing::ValuesIn(kAllModes),
                            ::testing::Values(variant));
}

INSTANTIATE_TEST_SUITE_P(AllFaultsAllModes, ChaosSuite,
                         all_faults_all_modes(kDefault), param_name);
INSTANTIATE_TEST_SUITE_P(AllFaultsAllModesNewReno, ChaosSuite,
                         all_faults_all_modes(kNewReno), param_name);
INSTANTIATE_TEST_SUITE_P(AllFaultsAllModesCubic, ChaosSuite,
                         all_faults_all_modes(kCubic), param_name);
INSTANTIATE_TEST_SUITE_P(AllFaultsAllModesBbr, ChaosSuite,
                         all_faults_all_modes(kBbr), param_name);
INSTANTIATE_TEST_SUITE_P(AllFaultsAllModes3gDrive, ChaosSuite,
                         all_faults_all_modes(k3gDrive), param_name);

TEST(ChaosControl, NoFaultRetrievesByteExact) {
  // The hardened client against a healthy stack: byte-exact, no retries.
  for (const ChaosVariant& variant : kVariants) {
    for (const ProtocolMode mode : kAllModes) {
      const harness::ChaosOutcome outcome =
          run_variant(ChaosFault::kNone, mode, kSeed, variant);
      EXPECT_TRUE(outcome.result.robot.complete)
          << to_string(mode) << " / " << variant.name;
      EXPECT_TRUE(outcome.byte_exact)
          << to_string(mode) << " / " << variant.name;
      EXPECT_EQ(outcome.result.robot.requests_failed, 0u);
    }
  }
}

TEST(ChaosRecovery, ServerFaultRegimesRecoverByteExact) {
  // These regimes limit the fault to early connections / odd requests, so a
  // correct recovery implementation must come away with the whole site.
  for (const ChaosVariant& variant : kVariants) {
    for (const ChaosFault fault :
         {ChaosFault::kServerStall, ChaosFault::kPrematureClose,
          ChaosFault::kServerErrors}) {
      for (const ProtocolMode mode : kAllModes) {
        const harness::ChaosOutcome outcome =
            run_variant(fault, mode, kSeed, variant);
        EXPECT_TRUE(outcome.result.robot.complete)
            << to_string(fault) << " / " << to_string(mode) << " / "
            << variant.name;
        EXPECT_TRUE(outcome.byte_exact)
            << to_string(fault) << " / " << to_string(mode) << " / "
            << variant.name;
      }
    }
  }
}

TEST(ChaosDeterminism, SameSeedReproducesTheRun) {
  for (const ChaosVariant& variant : kVariants) {
    for (const ChaosFault fault : harness::all_chaos_faults()) {
      const harness::ChaosOutcome a =
          run_variant(fault, ProtocolMode::kHttp11Pipelined, 3, variant);
      const harness::ChaosOutcome b =
          run_variant(fault, ProtocolMode::kHttp11Pipelined, 3, variant);
      const std::string where =
          std::string(to_string(fault)) + " / " + variant.name;
      EXPECT_EQ(a.result.trace.packets, b.result.trace.packets) << where;
      EXPECT_EQ(a.result.trace.wire_bytes, b.result.trace.wire_bytes)
          << where;
      EXPECT_EQ(a.result.robot.finished, b.result.robot.finished) << where;
      EXPECT_EQ(a.result.robot.requests_failed,
                b.result.robot.requests_failed)
          << where;
      EXPECT_EQ(a.byte_exact, b.byte_exact) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Dumbbell topology: the same fault regimes with routed forwarding and a
// shared bottleneck between the client and the server.
// ---------------------------------------------------------------------------

class ChaosDumbbell
    : public ::testing::TestWithParam<std::tuple<ChaosFault, ProtocolMode>> {};

TEST_P(ChaosDumbbell, ResolvesByteExactOrCleanlyAttributedThroughRouters) {
  const auto [fault, mode] = GetParam();
  const harness::ChaosOutcome outcome =
      harness::run_chaos(harness::chaos_spec(fault, mode, kSeed),
                         harness::shared_site(),
                         harness::TopologyKind::kDumbbell);
  const client::RobotStats& robot = outcome.result.robot;

  // The contract is unchanged by the topology: resolve, never hang.
  ASSERT_GT(robot.finished, robot.started)
      << to_string(fault) << " / " << to_string(mode);

  if (robot.complete) {
    EXPECT_TRUE(outcome.byte_exact)
        << to_string(fault) << " / " << to_string(mode);
    EXPECT_EQ(robot.requests_failed, 0u);
    EXPECT_TRUE(robot.failures.empty());
  } else {
    EXPECT_GT(robot.requests_failed, 0u);
    EXPECT_EQ(robot.requests_failed, robot.failures.size());
    for (const client::RequestFailure& failure : robot.failures) {
      EXPECT_FALSE(failure.target.empty());
      EXPECT_LE(failure.attempts, 8u);  // apply_chaos's max_attempts
      EXPECT_FALSE(std::string(to_string(failure.kind)).empty());
    }
  }

  const server::ServerStats& server = outcome.result.server;
  switch (fault) {
    case ChaosFault::kServerStall:
      EXPECT_GE(server.stalls_injected, 1u);
      break;
    case ChaosFault::kPrematureClose:
      EXPECT_GE(server.premature_closes_injected, 1u);
      break;
    case ChaosFault::kServerErrors:
      EXPECT_GE(server.responses_5xx, 1u);
      break;
    default:
      break;
  }
  // Traffic demonstrably crossed the shared bottleneck.
  EXPECT_GT(outcome.result.trace.packets, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsDumbbell, ChaosDumbbell,
    ::testing::Combine(
        ::testing::ValuesIn(harness::all_chaos_faults()),
        ::testing::Values(ProtocolMode::kHttp10Parallel,
                          ProtocolMode::kHttp11Pipelined,
                          ProtocolMode::kH2)),
    param_name);

TEST(ChaosDeterminismDumbbell, SameSeedReproducesTheRoutedRun) {
  for (const ChaosFault fault : harness::all_chaos_faults()) {
    const harness::ExperimentSpec spec =
        harness::chaos_spec(fault, ProtocolMode::kHttp11Pipelined, 3);
    const harness::ChaosOutcome a = harness::run_chaos(
        spec, harness::shared_site(), harness::TopologyKind::kDumbbell);
    const harness::ChaosOutcome b = harness::run_chaos(
        spec, harness::shared_site(), harness::TopologyKind::kDumbbell);
    EXPECT_EQ(a.result.trace.packets, b.result.trace.packets)
        << to_string(fault);
    EXPECT_EQ(a.result.trace.wire_bytes, b.result.trace.wire_bytes)
        << to_string(fault);
    EXPECT_EQ(a.result.robot.finished, b.result.robot.finished)
        << to_string(fault);
    EXPECT_EQ(a.result.robot.requests_failed, b.result.robot.requests_failed)
        << to_string(fault);
    EXPECT_EQ(a.byte_exact, b.byte_exact) << to_string(fault);
  }
}

TEST(RetryAttribution, GracefulCloseAndResetPartitionHoldsThroughRouters) {
  // The star-topology partition test below, replayed across the dumbbell:
  // closes and RSTs must survive router forwarding with their attribution
  // intact.
  harness::WorkloadConfig wc;
  wc.num_clients = 1;
  wc.arrivals = harness::ArrivalProcess::kFixedInterval;
  wc.topology = harness::TopologyKind::kDumbbell;
  wc.access = harness::wan_profile();
  wc.client = harness::robot_config(ProtocolMode::kHttp11Pipelined);
  wc.master_seed = 11;
  wc.verify_cache = true;
  wc.horizon = sim::seconds(300);

  wc.server = server::jigsaw_config();
  wc.server.max_requests_per_connection = 5;
  wc.server.close_style = server::CloseStyle::kGraceful;
  const harness::WorkloadResult graceful =
      harness::run_workload(wc, harness::shared_site());
  const client::RobotStats& gstats = graceful.clients.at(0).stats;
  EXPECT_TRUE(gstats.complete);
  EXPECT_TRUE(graceful.clients.at(0).byte_exact);
  EXPECT_GT(gstats.retries_after_close, 0u);
  EXPECT_EQ(gstats.retries_after_reset, 0u);

  wc.server = server::apache_beta2_config();
  const harness::WorkloadResult naive =
      harness::run_workload(wc, harness::shared_site());
  const client::RobotStats& nstats = naive.clients.at(0).stats;
  EXPECT_GT(nstats.resets_seen, 0u);
  EXPECT_GT(nstats.retries_after_reset, 0u);
  EXPECT_EQ(nstats.retries_after_reset + nstats.retries_after_close,
            nstats.retries);
  if (!nstats.complete) {
    EXPECT_EQ(nstats.requests_failed, nstats.failures.size());
    for (const client::RequestFailure& failure : nstats.failures) {
      EXPECT_EQ(failure.kind, client::FailureKind::kConnectionLost);
    }
  }
}

TEST(RetryAttribution, GoawayPartitionsMultiplexedRetries) {
  // HTTP/2 analogue of the close/reset partition: a server that drains after
  // 5 requests announces the cut with GOAWAY(last_stream_id). Streams the
  // server acknowledged processing are charged a retry; streams above the
  // advertised id were provably untouched and retry for free — so the whole
  // site still arrives byte-exact within the ordinary attempt budget.
  harness::ExperimentSpec spec;
  spec.network = harness::wan_profile();
  spec.client = harness::robot_config(ProtocolMode::kH2);
  // Push off: with push on, the whole page rides a single request and the
  // per-connection request limit never trips. Requesting each embedded
  // object as its own stream forces the server through the limit.
  spec.client.h2_enable_push = false;
  spec.seed = 11;

  spec.server = server::jigsaw_config();
  spec.server.max_requests_per_connection = 5;
  spec.server.close_style = server::CloseStyle::kGraceful;
  const harness::RunResult graceful =
      harness::run_once(spec, harness::shared_site());
  EXPECT_TRUE(graceful.robot.complete);
  EXPECT_GT(graceful.robot.h2_goaways_seen, 0u);
  // GOAWAY partitions cleanly: nothing was blamed on an RST.
  EXPECT_EQ(graceful.robot.retries_after_reset, 0u);
  EXPECT_EQ(graceful.robot.requests_failed, 0u);

  // The naive-close server (Apache 1.2b2 model) crashes the connection
  // without draining; the multiplexed client must still resolve every
  // stream — completed, retried, or attributed — and never hang.
  spec.server = server::apache_beta2_config();
  const harness::RunResult naive =
      harness::run_once(spec, harness::shared_site());
  EXPECT_GT(naive.robot.finished, naive.robot.started);
  EXPECT_EQ(naive.robot.retries_after_reset + naive.robot.retries_after_close,
            naive.robot.retries);
  if (!naive.robot.complete) {
    EXPECT_EQ(naive.robot.requests_failed, naive.robot.failures.size());
  }
}

TEST(RetryAttribution, GracefulCloseAndResetArePartitioned) {
  // Satellite of the paper's pipelining-close diagnosis: a server that stops
  // after 5 requests with a graceful close produces retries_after_close;
  // Apache 1.2b2's naive close draws RSTs, producing retries_after_reset.
  harness::ExperimentSpec spec;
  spec.network = harness::wan_profile();
  spec.client = harness::robot_config(ProtocolMode::kHttp11Pipelined);
  spec.seed = 11;

  spec.server = server::jigsaw_config();
  spec.server.max_requests_per_connection = 5;
  spec.server.close_style = server::CloseStyle::kGraceful;
  const harness::RunResult graceful =
      harness::run_once(spec, harness::shared_site());
  EXPECT_TRUE(graceful.robot.complete);
  EXPECT_GT(graceful.robot.retries_after_close, 0u);
  EXPECT_EQ(graceful.robot.retries_after_reset, 0u);

  spec.server = server::apache_beta2_config();
  const harness::RunResult naive =
      harness::run_once(spec, harness::shared_site());
  // Naive close under pipelining draws RSTs (the paper's diagnosis). An RST
  // can destroy responses already in flight, so completion is not
  // guaranteed — but every recovery must be counted, partitioned by cause,
  // and any permanent failure attributed to the lost connection.
  EXPECT_GT(naive.robot.resets_seen, 0u);
  EXPECT_GT(naive.robot.retries_after_reset, 0u);
  EXPECT_EQ(naive.robot.retries_after_reset + naive.robot.retries_after_close,
            naive.robot.retries);
  if (!naive.robot.complete) {
    EXPECT_EQ(naive.robot.requests_failed, naive.robot.failures.size());
    for (const client::RequestFailure& failure : naive.robot.failures) {
      EXPECT_EQ(failure.kind, client::FailureKind::kConnectionLost);
    }
  }
}

}  // namespace
}  // namespace hsim
