// Golden-trace regression suite.
//
// Each golden file is the canonical text export of the client-side packet
// trace for one fully-pinned scenario (see harness/scenarios.hpp). The test
// re-runs the scenario and compares byte-for-byte. Any behavioural change —
// a TCP constant, a framing decision, an event-ordering tweak — perturbs the
// trace and fails loudly with a readable structural diff.
//
// When a golden comparison fails, the freshly-captured trace and the diff
// report are written next to the test binary (golden_<name>.actual.trace /
// golden_<name>.diff.txt) so CI can upload them as artifacts.
//
// Regenerating goldens after an *intentional* behaviour change:
//   build/tools/hsim-trace run table4 -o tests/golden/table4.trace
//   build/tools/hsim-trace run table6 -o tests/golden/table6.trace
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/scenarios.hpp"
#include "net/trace_io.hpp"

namespace hsim {
namespace {

#ifndef HSIM_GOLDEN_DIR
#error "HSIM_GOLDEN_DIR must point at tests/golden"
#endif

std::string golden_path(const std::string& name) {
  return std::string(HSIM_GOLDEN_DIR) + "/" + name + ".trace";
}

// Compares the scenario against its golden as given and under the identity
// "flat" netem overlay, which may not move a single packet.
void check_against_golden(const std::string& name,
                          const harness::ExperimentSpec& spec) {
  std::vector<net::TraceRecord> expected;
  std::string error;
  ASSERT_TRUE(net::load_trace_file(golden_path(name), &expected, &error))
      << error << "\n(regenerate with: hsim-trace run " << name << " -o "
      << golden_path(name) << ")";
  std::vector<std::uint8_t> raw;
  ASSERT_TRUE(net::read_file(golden_path(name), &raw));

  struct Variant {
    const char* suffix;  // artifact name suffix
    const char* profile;
  };
  for (const Variant& v : {Variant{"", ""}, Variant{"_flat", "flat"}}) {
    const std::string tag = name + v.suffix;
    harness::ExperimentSpec run = spec;
    run.profile = v.profile;
    const std::vector<net::TraceRecord> actual =
        harness::capture_trace(run, harness::shared_site());
    ASSERT_FALSE(actual.empty())
        << "scenario " << tag << " captured no packets";

    const net::TraceDiff diff = net::diff_traces(expected, actual);
    if (!diff.identical) {
      // Leave artifacts for CI next to the test binary.
      net::write_file("golden_" + tag + ".actual.trace",
                      net::trace_to_text(actual));
      net::write_file("golden_" + tag + ".diff.txt", diff.report);
    }
    EXPECT_TRUE(diff.identical)
        << "golden trace '" << tag << "' diverged (" << diff.differing
        << " differing records, first at index " << diff.first_diff << ")\n"
        << diff.report;

    // The canonical text rendering must match byte-for-byte too — the
    // golden is the file of record, not just its parsed form.
    EXPECT_EQ(std::string(raw.begin(), raw.end()), net::trace_to_text(actual))
        << tag;
  }
}

TEST(GoldenTrace, Table4Http10Lan) {
  check_against_golden("table4", harness::golden_table4_spec());
}

TEST(GoldenTrace, Table6Http11PipelinedWan) {
  check_against_golden("table6", harness::golden_table6_spec());
}

// The h2 goldens pin the multiplexed framing layer end to end: preface,
// SETTINGS exchange, stream scheduling, server push, and flow-control
// WINDOW_UPDATE cadence all shape the packet sequence.
TEST(GoldenTrace, Table4H2Lan) {
  check_against_golden("table4h2", harness::golden_table4_h2_spec());
}

TEST(GoldenTrace, Table6H2Wan) {
  check_against_golden("table6h2", harness::golden_table6_h2_spec());
}

// Same seed, two fresh runs: the simulator itself must be deterministic, or
// the golden comparison above means nothing.
TEST(GoldenTrace, SameSeedRunsAreIdentical) {
  const harness::ExperimentSpec spec = harness::golden_table4_spec();
  const auto a = harness::capture_trace(spec, harness::shared_site());
  const auto b = harness::capture_trace(spec, harness::shared_site());
  const net::TraceDiff diff = net::diff_traces(a, b);
  EXPECT_TRUE(diff.identical) << diff.report;
  EXPECT_EQ(net::trace_to_text(a), net::trace_to_text(b));
}

// A different seed must perturb the trace — otherwise the seed isn't reaching
// the layers the goldens are supposed to pin down.
TEST(GoldenTrace, DifferentSeedPerturbsTrace) {
  harness::ExperimentSpec spec = harness::golden_table6_spec();
  const auto a = harness::capture_trace(spec, harness::shared_site());
  spec.seed = 2;
  const auto b = harness::capture_trace(spec, harness::shared_site());
  EXPECT_FALSE(net::diff_traces(a, b).identical);
}

// Round-trips: a golden survives text and binary encode/decode unchanged, so
// regenerated files stay comparable across formats.
TEST(GoldenTrace, GoldenRoundTripsThroughBothFormats) {
  for (const std::string& name : harness::golden_scenario_names()) {
    std::vector<net::TraceRecord> records;
    std::string error;
    ASSERT_TRUE(net::load_trace_file(golden_path(name), &records, &error))
        << error;

    std::vector<net::TraceRecord> from_text;
    ASSERT_TRUE(
        net::trace_from_text(net::trace_to_text(records), &from_text, &error))
        << error;
    EXPECT_TRUE(net::diff_traces(records, from_text).identical) << name;

    std::vector<net::TraceRecord> from_binary;
    ASSERT_TRUE(net::trace_from_binary(net::trace_to_binary(records),
                                       &from_binary, &error))
        << error;
    EXPECT_TRUE(net::diff_traces(records, from_binary).identical) << name;
  }
}

}  // namespace
}  // namespace hsim
