// Topology-chaos experiment: recovery time and goodput degradation when the
// shared bottleneck itself fails under load.
//
// Two tables, 100 clients each, Microscape first visits:
//
//   Failover — redundant dumbbell, primary pair flaps twice. The routers
//   reroute onto the backup pair after the detection delay and fail back
//   afterwards; the table shows recovery is nearly free (median/P95 vs the
//   clean baseline, goodput flat, zero failed clients).
//
//   Retry storm — plain dumbbell (no backup path), one 20 s bottleneck
//   outage. Head-of-line responses stop progressing, request deadlines fire,
//   and every client re-issues into the dead link on its backoff clock.
//   Comparing variants at the same seed:
//
//     storm     — recovery armed, no retry budget, no jitter
//     budgeted  — same seed, plus per-client retry budgets (hard stop with
//                 attribution when the bucket empties) and seeded backoff
//                 jitter
//
//   The soak tests pin down and this table quantifies: budgets + jitter
//   strictly reduce duplicate-request volume during the outage.
#include <cstdio>
#include <string>

#include "harness/experiment.hpp"
#include "harness/soak.hpp"

namespace {

using namespace hsim;

harness::SoakConfig base_config(client::ProtocolMode mode) {
  harness::SoakConfig config;
  harness::WorkloadConfig& wc = config.workload;
  wc.client = harness::robot_config(mode);
  wc.client.max_attempts = 10;
  wc.client.request_deadline = sim::seconds(5);
  wc.client.retry_backoff = sim::milliseconds(500);
  wc.server = server::apache_config();
  wc.master_seed = 7;
  return config;
}

void print_header() {
  std::printf("%-22s %-9s %5s %5s %7s %7s %8s %6s %5s %5s %9s %7s\n", "Mode",
              "Variant", "Done", "Fail", "Median", "P95", "Retries", "Exh",
              "F/over", "F/back", "GoodputMB", "vsClean");
  std::printf("%s\n", std::string(114, '-').c_str());
}

void print_row(client::ProtocolMode mode, const char* variant,
               const harness::SoakResult& result, double clean_median) {
  const double median = result.workload.median_page_seconds();
  const double vs_clean =
      clean_median > 0.0 ? 100.0 * (median / clean_median - 1.0) : 0.0;
  std::printf(
      "%-22s %-9s %5u %5u %7.2f %7.2f %8llu %6llu %5llu %5llu %9.2f "
      "%+6.1f%%\n",
      std::string(to_string(mode)).c_str(), variant,
      result.workload.completed(), result.workload.failed(), median,
      result.workload.p95_page_seconds(),
      static_cast<unsigned long long>(result.retries),
      static_cast<unsigned long long>(result.retry_budget_exhausted),
      static_cast<unsigned long long>(
          result.workload.metrics.counter("topo.router.failovers")),
      static_cast<unsigned long long>(
          result.workload.metrics.counter("topo.router.failbacks")),
      static_cast<double>(result.body_bytes) / (1024.0 * 1024.0), vs_clean);
  if (!result.ok()) {
    std::printf("  !! soak oracles: %zu violation(s); first: %s\n",
                result.violations.size(),
                result.violations.empty() ? "(terminal check)"
                                          : result.violations[0].c_str());
  }
}

}  // namespace

int main() {
  const content::MicroscapeSite& site = harness::shared_site();

  const client::ProtocolMode modes[] = {
      client::ProtocolMode::kHttp10Parallel,
      client::ProtocolMode::kHttp11Pipelined,
  };

  std::printf(
      "=== Failover: redundant dumbbell, primary bottleneck flaps twice "
      "===\n");
  print_header();
  for (const client::ProtocolMode mode : modes) {
    double clean_median = 0.0;
    for (const char* variant : {"clean", "failover"}) {
      harness::SoakConfig config = base_config(mode);
      if (std::string(variant) == "failover") {
        config.timeline = {
            {harness::TopoFaultKind::kBottleneckFlap, "", sim::seconds(3),
             sim::milliseconds(1500)},
            {harness::TopoFaultKind::kBottleneckFlap, "", sim::seconds(9),
             sim::milliseconds(400)},
        };
      }
      const harness::SoakResult result = harness::run_soak(config, site);
      if (std::string(variant) == "clean") {
        clean_median = result.workload.median_page_seconds();
      }
      print_row(mode, variant, result, clean_median);
    }
    std::printf("\n");
  }

  std::printf(
      "=== Retry storm: plain dumbbell (no backup), one 20 s bottleneck "
      "outage ===\n");
  print_header();
  for (const client::ProtocolMode mode : modes) {
    double clean_median = 0.0;
    std::uint64_t storm_retries = 0, budgeted_retries = 0;
    for (const char* variant : {"clean", "storm", "budgeted"}) {
      harness::SoakConfig config = base_config(mode);
      config.workload.topology = harness::TopologyKind::kDumbbell;
      if (std::string(variant) != "clean") {
        config.timeline = {{harness::TopoFaultKind::kBottleneckFlap, "",
                            sim::seconds(3), sim::seconds(20)}};
      }
      if (std::string(variant) == "budgeted") {
        config.workload.client.retry_budget = 3;
        config.workload.client.retry_jitter = 0.5;
      }
      const harness::SoakResult result = harness::run_soak(config, site);
      if (std::string(variant) == "clean") {
        clean_median = result.workload.median_page_seconds();
      }
      if (std::string(variant) == "storm") storm_retries = result.retries;
      if (std::string(variant) == "budgeted") {
        budgeted_retries = result.retries;
      }
      print_row(mode, variant, result, clean_median);
    }
    std::printf("  budgets+jitter vs unbudgeted duplicate volume: %llu -> "
                "%llu (%s)\n\n",
                static_cast<unsigned long long>(storm_retries),
                static_cast<unsigned long long>(budgeted_retries),
                budgeted_retries < storm_retries ? "reduced" : "NOT reduced");
  }
  return 0;
}
