// Completion-time cache verification in run_workload. Each robot's cache is
// checked against the site the moment its page completes (when
// verify_cache is set) and released right after, so the verdict must not
// depend on the cache outliving the run. The fleets cover both places a
// done callback fires from: an h2 session's response callback (star) and
// the HTTP/1.1 pipeline parser (dumbbell), the latter also sharded, where
// the callbacks run on worker threads.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "harness/workload.hpp"

namespace hsim {
namespace {

harness::WorkloadConfig small_fleet(client::ProtocolMode mode,
                                    harness::TopologyKind topology) {
  harness::WorkloadConfig cfg;
  cfg.num_clients = 20;
  cfg.topology = topology;
  cfg.arrivals = harness::ArrivalProcess::kPoisson;
  cfg.mean_interarrival = sim::milliseconds(10);
  cfg.access = harness::lan_profile();
  cfg.master_seed = 42;
  cfg.server = server::apache_config();
  cfg.client = harness::robot_config(mode);
  cfg.client.page_deadline = sim::seconds(120);
  cfg.verify_cache = true;
  return cfg;
}

void expect_every_page_byte_exact(const harness::WorkloadResult& r) {
  ASSERT_EQ(r.clients.size(), 20u);
  EXPECT_EQ(r.completed(), 20u);
  for (const harness::ClientOutcome& c : r.clients) {
    SCOPED_TRACE(::testing::Message() << "client " << c.id);
    EXPECT_TRUE(c.resolved);
    EXPECT_TRUE(c.complete());
    EXPECT_TRUE(c.byte_exact);
  }
}

TEST(WorkloadVerify, StarH2PagesAreByteExactAtCompletion) {
  expect_every_page_byte_exact(harness::run_workload(
      small_fleet(client::ProtocolMode::kH2, harness::TopologyKind::kStar),
      harness::shared_site()));
}

TEST(WorkloadVerify, DumbbellPipelinedPagesAreByteExactAtCompletion) {
  for (const unsigned threads : {0u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    harness::WorkloadConfig cfg =
        small_fleet(client::ProtocolMode::kHttp11Pipelined,
                    harness::TopologyKind::kDumbbell);
    cfg.threads = threads;
    expect_every_page_byte_exact(
        harness::run_workload(cfg, harness::shared_site()));
  }
}

}  // namespace
}  // namespace hsim
