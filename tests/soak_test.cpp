// Chaos-soak suite (LABEL soak — dedicated CI step, 1200 s timeout).
//
// The deterministic soak harness drives a fleet through the redundant
// dumbbell while a scripted multi-fault timeline (bottleneck flap, gate
// crash, bnA.up queue wedge, second flap) hits the topology, with the
// invariant oracles sweeping every epoch:
//
//   N=100  — every oracle green, every client resolved and attributed, the
//            faults demonstrably hit the data path, and two same-seed runs
//            produce bit-identical registries. On oracle failure the run
//            writes soak_n100.failing.trace / soak_n100.metrics.txt next to
//            the binary for the CI artifact uploader.
//   N=1000 — the scale guarantee: the run terminates, every client reaches
//            a verdict, every permanent failure carries an attribution, and
//            no connection leaks on either side.
#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.hpp"
#include "harness/soak.hpp"

namespace hsim {
namespace {

harness::SoakConfig soak_config(unsigned n, client::ProtocolMode mode) {
  harness::SoakConfig config;
  harness::WorkloadConfig& wc = config.workload;
  wc.num_clients = n;
  wc.client = harness::robot_config(mode);
  wc.client.max_attempts = 8;
  wc.client.request_deadline = sim::seconds(10);
  wc.client.retry_backoff = sim::milliseconds(200);
  wc.client.retry_budget = 8;
  wc.client.retry_jitter = 0.5;
  wc.server = server::apache_config();
  wc.epoch = sim::seconds(5);
  wc.horizon = sim::seconds(300);
  wc.drain = sim::seconds(120);
  wc.master_seed = 42;
  config.timeline = harness::default_soak_timeline();
  return config;
}

void expect_green(const harness::SoakResult& result) {
  for (const std::string& v : result.violations) ADD_FAILURE() << v;
  EXPECT_EQ(result.violations_suppressed, 0u);
  EXPECT_TRUE(result.workload.all_resolved());
  EXPECT_EQ(result.workload.server_open_after_drain, 0u);
  for (const harness::ClientOutcome& c : result.workload.clients) {
    EXPECT_EQ(c.leaked_connections, 0u) << "client " << c.id;
    EXPECT_EQ(c.stats.requests_failed, c.stats.failures.size())
        << "client " << c.id;
  }
  EXPECT_TRUE(result.ok());
}

TEST(Soak, N100MultiFaultOraclesGreen) {
  harness::SoakConfig config =
      soak_config(100, client::ProtocolMode::kHttp11Pipelined);
  config.workload.verify_cache = true;
  config.failing_artifact_prefix = "soak_n100";
  const harness::SoakResult result =
      harness::run_soak(config, harness::shared_site());

  expect_green(result);
  EXPECT_GT(result.epochs_checked, 0u);
  // Not vacuous: the timeline genuinely hit the data path — the crash
  // flushed or dropped packets, and the flap drove a failover and failback.
  const obs::Snapshot& m = result.workload.metrics;
  EXPECT_GT(m.counter("topo.router.crash_flushed") +
                m.counter("topo.router.dropped_crashed"),
            0u);
  EXPECT_GT(m.counter("topo.router.failovers"), 0u);
  EXPECT_GT(m.counter("topo.router.failbacks"), 0u);
  // Clients that completed got the site byte-exact despite the faults.
  unsigned exact = 0;
  for (const harness::ClientOutcome& c : result.workload.clients) {
    if (c.complete()) {
      EXPECT_TRUE(c.byte_exact) << "client " << c.id;
      ++exact;
    }
  }
  EXPECT_GT(exact, 0u);
}

TEST(Soak, N100SameSeedBitIdentical) {
  const harness::SoakConfig config =
      soak_config(100, client::ProtocolMode::kHttp10Parallel);
  const harness::SoakResult a =
      harness::run_soak(config, harness::shared_site());
  const harness::SoakResult b =
      harness::run_soak(config, harness::shared_site());
  EXPECT_EQ(a.workload.completed(), b.workload.completed());
  EXPECT_EQ(a.workload.failed(), b.workload.failed());
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retry_tokens_consumed, b.retry_tokens_consumed);
  EXPECT_EQ(a.retry_budget_exhausted, b.retry_budget_exhausted);
  ASSERT_EQ(a.workload.metrics.dump_text(), b.workload.metrics.dump_text());
}

TEST(Soak, N1000TerminatesEveryClientAttributed) {
  harness::SoakConfig config =
      soak_config(1000, client::ProtocolMode::kHttp11Pipelined);
  // Scale knobs: longer arrival spread, no O(N·site) cache verification,
  // no hop trace.
  config.workload.mean_interarrival = sim::milliseconds(20);
  config.workload.horizon = sim::seconds(600);
  config.workload.drain = sim::seconds(120);
  const harness::SoakResult result =
      harness::run_soak(config, harness::shared_site());

  expect_green(result);
  EXPECT_GT(result.epochs_checked, 0u);
  EXPECT_GT(result.workload.completed(), 0u);
  EXPECT_GT(result.workload.metrics.counter("topo.router.failovers"), 0u);
}

}  // namespace
}  // namespace hsim
