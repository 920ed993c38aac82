// Trace-driven time-varying link profiles (src/netem).
//
// Covers the subsystem's load-bearing invariants:
//   - the constant-rate fast path reproduces the legacy static-link
//     serialisation arithmetic bit for bit (the flat-identity oracle — also
//     checked end-to-end against the golden Table 4/6 scenarios);
//   - the segment-boundary walk conserves bytes: a transmission straddling a
//     rate change takes exactly the time the piecewise integral says;
//   - the radio machine charges the promotion delay exactly once per idle
//     period, and queued packets ride the same promotion;
//   - trace files round-trip (parse(render(p)) == p), the checked-in
//     profiles/*.netem are byte-pinned to the seeded generators, and
//     malformed input is rejected with line-numbered errors;
//   - min_remote_latency stays a valid lower bound under a profile (the
//     sharded engine's lookahead rule), and thread count does not change
//     results;
//   - the modern content axis shrinks the page deterministically and renames
//     every image reference.
#include "netem/profile.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "content/microscape.hpp"
#include "harness/experiment.hpp"
#include "harness/scenarios.hpp"
#include "harness/workload.hpp"
#include "net/channel.hpp"
#include "net/link.hpp"
#include "net/trace_io.hpp"
#include "sim/event_queue.hpp"

#ifndef HSIM_PROFILE_DIR
#error "HSIM_PROFILE_DIR must point at the checked-in profiles/ directory"
#endif

namespace hsim {
namespace {

// ---- Profile timeline ------------------------------------------------------

TEST(NetemProfile, ConstantRateMatchesLegacyArithmetic) {
  // The flat path must be the same double-divide the static link does, not
  // an integer reformulation that rounds differently.
  for (const std::int64_t rate : {28'800LL, 1'000'000LL, 10'000'000LL}) {
    const netem::Profile p = netem::Profile::constant(rate);
    ASSERT_TRUE(p.constant_rate());
    for (const std::size_t bytes : {41u, 576u, 1500u, 65535u}) {
      const sim::Time legacy = sim::from_seconds(
          static_cast<double>(bytes) * 8.0 / static_cast<double>(rate));
      // Time-invariant: the identity profile has no timeline to consult.
      EXPECT_EQ(p.transmit_duration(0, bytes), legacy);
      EXPECT_EQ(p.transmit_duration(sim::seconds(12345), bytes), legacy);
    }
  }
}

TEST(NetemProfile, ZeroRateMeansNoSerialisationDelay) {
  const netem::Profile p = netem::Profile::constant(0);
  EXPECT_EQ(p.transmit_duration(0, 100'000), 0);
}

TEST(NetemProfile, BoundaryWalkConservesBytes) {
  // 8 kbit/s for the first second, 16 kbit/s after. A 1000-wire-byte packet
  // (8000 bits) started at t=0.5s clocks 4000 bits in the slow half-second
  // and the remaining 4000 bits at double rate: exactly 0.75 s.
  const netem::Profile p(
      {{0, 8'000, 0}, {sim::seconds(1), 16'000, 0}});
  EXPECT_EQ(p.transmit_duration(sim::from_seconds(0.5), 1000),
            sim::from_seconds(0.75));
  // Fully inside the second segment: plain rate arithmetic.
  EXPECT_EQ(p.transmit_duration(sim::seconds(2), 1000),
            sim::from_seconds(0.5));
  // Straddling two boundaries of a looping timeline: 1s at 8k (8000 bits),
  // 1s at 16k (16000 bits), then 8000/8000 = 1s into the next loop of the
  // slow segment -> 24000 + 8000 = 32000 bits in exactly 3 s.
  const netem::Profile loop(
      {{0, 8'000, 0}, {sim::seconds(1), 16'000, 0}}, sim::seconds(2));
  EXPECT_EQ(loop.transmit_duration(0, 4000), sim::seconds(3));
}

TEST(NetemProfile, LoopingTimelineWraps) {
  const netem::Profile p({{0, 1'000, sim::milliseconds(5)},
                          {sim::seconds(1), 2'000, sim::milliseconds(9)}},
                         sim::seconds(2));
  EXPECT_EQ(p.bandwidth_at(sim::from_seconds(0.5)), 1'000);
  EXPECT_EQ(p.bandwidth_at(sim::from_seconds(1.5)), 2'000);
  EXPECT_EQ(p.bandwidth_at(sim::from_seconds(2.5)), 1'000);  // wrapped
  EXPECT_EQ(p.extra_latency_at(sim::from_seconds(3.5)), sim::milliseconds(9));
  EXPECT_EQ(p.min_extra_latency(), sim::milliseconds(5));
}

TEST(NetemProfile, ConstructorRejectsMalformedTimelines) {
  using netem::Profile;
  using netem::Segment;
  EXPECT_THROW(Profile(std::vector<Segment>{}), std::invalid_argument);
  // First segment must start at the epoch.
  EXPECT_THROW(Profile({{sim::seconds(1), 1000, 0}}), std::invalid_argument);
  // Strictly increasing starts.
  EXPECT_THROW(Profile({{0, 1000, 0}, {0, 2000, 0}}), std::invalid_argument);
  // Negative extra latency breaks the lookahead lower bound.
  EXPECT_THROW(Profile({{0, 1000, -1}}), std::invalid_argument);
  // Rate 0 (infinite) is only meaningful for the single-segment identity.
  EXPECT_THROW(Profile({{0, 0, 0}, {sim::seconds(1), 1000, 0}}),
               std::invalid_argument);
  // The loop period must extend past the last segment start.
  EXPECT_THROW(Profile({{0, 1000, 0}, {sim::seconds(2), 2000, 0}},
                       sim::seconds(2)),
               std::invalid_argument);
}

// ---- Radio state machine (net::Link integration) ---------------------------

class CollectingSink : public net::PacketSink {
 public:
  explicit CollectingSink(sim::EventQueue& q) : queue_(q) {}
  void deliver(net::Packet packet) override {
    arrivals.emplace_back(queue_.now(), std::move(packet));
  }
  std::vector<std::pair<sim::Time, net::Packet>> arrivals;

 private:
  sim::EventQueue& queue_;
};

net::Packet make_packet(std::size_t payload_bytes) {
  net::Packet p;
  p.payload = buf::Bytes(payload_bytes, 0xAB);
  return p;
}

TEST(NetemRadio, PromotionChargedOncePerIdlePeriod) {
  sim::EventQueue q;
  CollectingSink sink(q);
  net::LinkConfig cfg;
  cfg.bandwidth_bps = 0;  // serialisation comes from the profile
  cfg.propagation_delay = 0;
  cfg.delay_jitter = 0.0;
  auto dyn = std::make_shared<netem::LinkDynamics>();
  dyn->profile = netem::Profile::constant(8'000);  // 1000 wire B = 1 s
  dyn->radio = {true, sim::milliseconds(100), sim::seconds(1)};
  cfg.dynamics = dyn;
  net::Link link(q, cfg, sim::Rng(1));
  link.set_sink(&sink);

  // Two back-to-back packets from a cold radio: the first pays the 100 ms
  // promotion, the second is queued behind it and rides the same promotion.
  link.transmit(make_packet(960));
  link.transmit(make_packet(960));
  // The second transmission ends at 2.1 s and the radio holds ACTIVE for
  // the 1 s inactivity timeout (until 3.1 s). A packet at 3.05 s is still
  // warm; one at 6 s finds the radio idle again and pays a second promotion.
  q.schedule_at(sim::from_seconds(3.05),
                [&] { link.transmit(make_packet(960)); });
  q.schedule_at(sim::seconds(6), [&] { link.transmit(make_packet(960)); });
  q.run();

  ASSERT_EQ(sink.arrivals.size(), 4u);
  EXPECT_EQ(sink.arrivals[0].first, sim::from_seconds(1.1));
  EXPECT_EQ(sink.arrivals[1].first, sim::from_seconds(2.1));  // no 2nd charge
  EXPECT_EQ(sink.arrivals[2].first, sim::from_seconds(4.05));  // warm radio
  EXPECT_EQ(sink.arrivals[3].first, sim::from_seconds(7.1));   // idle again
  EXPECT_EQ(link.stats().radio_wakeups, 2u);
}

TEST(NetemRadio, ProfileExtraLatencyAddsToPropagation) {
  sim::EventQueue q;
  CollectingSink sink(q);
  net::LinkConfig cfg;
  cfg.propagation_delay = sim::milliseconds(10);
  cfg.delay_jitter = 0.0;
  auto dyn = std::make_shared<netem::LinkDynamics>();
  dyn->profile = netem::Profile(
      {{0, 8'000, sim::milliseconds(40)}, {sim::seconds(10), 8'000, 0}},
      sim::seconds(20));
  cfg.dynamics = dyn;
  net::Link link(q, cfg, sim::Rng(1));
  link.set_sink(&sink);
  link.transmit(make_packet(960));  // 1 s serialisation
  q.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first,
            sim::seconds(1) + sim::milliseconds(50));
}

// ---- Lookahead rule --------------------------------------------------------

TEST(NetemLookahead, MinRemoteLatencyAddsProfileFloor) {
  net::LinkConfig cfg;
  cfg.propagation_delay = sim::milliseconds(10);
  cfg.delay_jitter = 0.1;
  const sim::Time base = net::config_min_latency(cfg);
  EXPECT_EQ(base, sim::milliseconds(9));  // 10 ms shrunk by the jitter bound

  auto dyn = std::make_shared<netem::LinkDynamics>();
  dyn->profile = netem::Profile({{0, 1'000, sim::milliseconds(5)},
                                 {sim::seconds(1), 2'000,
                                  sim::milliseconds(9)}},
                                sim::seconds(2));
  cfg.dynamics = dyn;
  // The profile may only ADD latency, so the bound tightens by the timeline
  // minimum — never loosens. Serialisation and radio wakeup push delivery
  // later still, keeping the bound safe.
  EXPECT_EQ(net::config_min_latency(cfg), base + sim::milliseconds(5));

  sim::EventQueue q;
  net::Link link(q, cfg, sim::Rng(1));
  EXPECT_EQ(link.min_remote_latency(), base + sim::milliseconds(5));
}

// ---- Trace file format -----------------------------------------------------

TEST(NetemTraceFormat, NamedProfilesRoundTrip) {
  for (const std::string& name : netem::named_profile_names()) {
    const auto built = netem::named_profile(name);
    ASSERT_TRUE(built.has_value()) << name;
    const std::string text = netem::profile_to_text(*built);
    netem::PathProfile parsed;
    std::string error;
    ASSERT_TRUE(netem::parse_profile(text, &parsed, &error))
        << name << ": " << error;
    EXPECT_EQ(parsed, *built) << name;
  }
}

TEST(NetemTraceFormat, CheckedInFilesArePinnedToGenerators) {
  // profiles/<name>.netem is the canonical rendering of the seeded
  // generator — byte for byte. Regenerate after an intentional change with:
  //   build/tools/hsim-trace profiles <name> > profiles/<name>.netem
  for (const std::string& name : netem::named_profile_names()) {
    const std::string path =
        std::string(HSIM_PROFILE_DIR) + "/" + name + ".netem";
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), netem::profile_to_text(*netem::named_profile(name)))
        << path << " diverged from its generator (regenerate with "
        << "hsim-trace profiles " << name << ")";
  }
}

TEST(NetemTraceFormat, AsymmetricUpLineSurvivesRoundTrip) {
  netem::PathProfile p;
  p.name = "asym";
  p.down = netem::Profile({{0, 8'000'000, sim::milliseconds(20)}});
  p.up = netem::Profile({{0, 1'000'000, sim::milliseconds(30)}});
  p.radio = {true, sim::milliseconds(250), sim::seconds(5)};
  p.queue_limit_packets = 300;
  netem::PathProfile parsed;
  std::string error;
  ASSERT_TRUE(netem::parse_profile(netem::profile_to_text(p), &parsed, &error))
      << error;
  EXPECT_EQ(parsed, p);
}

TEST(NetemTraceFormat, MalformedInputsAreRejectedWithLineNumbers) {
  const struct {
    const char* label;
    const char* text;
  } kBad[] = {
      {"empty", ""},
      {"no segments", "profile p\n"},
      {"missing profile line", "down 0 1000 0\n"},
      {"first start nonzero", "profile p\ndown 5 1000 0\n"},
      {"non-increasing starts", "profile p\ndown 0 1000 0\ndown 0 2000 0\n"},
      {"zero rate", "profile p\ndown 0 0 0\ndown 1 1000 0\n"},
      {"negative extra", "profile p\ndown 0 1000 -3\n"},
      {"loop before last start",
       "profile p\nloop 1\ndown 0 1000 0\ndown 5 1000 0\n"},
      {"unknown directive", "profile p\nbogus 1\ndown 0 1000 0\n"},
      {"garbage field", "profile p\ndown 0 fast 0\n"},
  };
  for (const auto& bad : kBad) {
    netem::PathProfile out;
    std::string error;
    EXPECT_FALSE(netem::parse_profile(bad.text, &out, &error)) << bad.label;
    EXPECT_FALSE(error.empty()) << bad.label;
    if (bad.text[0] != '\0') {
      EXPECT_NE(error.find("line"), std::string::npos)
          << bad.label << ": " << error;
    }
  }
}

// ---- Harness overlay -------------------------------------------------------

TEST(NetemOverlay, AsymmetryRadioQueueAndLabels) {
  netem::PathProfile p;
  p.down = netem::Profile({{0, 8'000'000, 0}});
  p.up = netem::Profile({{0, 1'000'000, 0}});
  p.radio = {true, sim::milliseconds(250), sim::seconds(5)};
  p.queue_limit_packets = 300;

  net::ChannelConfig cfg = harness::mobile_profile().channel_config();
  net::apply_path_profile(p, cfg, "access");
  ASSERT_NE(cfg.a_to_b.dynamics, nullptr);
  ASSERT_NE(cfg.b_to_a.dynamics, nullptr);
  EXPECT_EQ(cfg.a_to_b.dynamics->profile, p.up);    // A = client: uplink
  EXPECT_EQ(cfg.b_to_a.dynamics->profile, p.down);
  EXPECT_TRUE(cfg.a_to_b.dynamics->radio.enabled);  // radio on device side
  EXPECT_FALSE(cfg.b_to_a.dynamics->radio.enabled);
  EXPECT_EQ(cfg.a_to_b.queue_limit_packets, 300u);  // bufferbloat override
  EXPECT_EQ(cfg.b_to_a.queue_limit_packets, 300u);
  EXPECT_EQ(cfg.a_to_b.label, "access.up");
  EXPECT_EQ(cfg.b_to_a.label, "access.down");
}

TEST(NetemOverlay, EmptyIsStaticAndFlatIsConstantRate) {
  net::ChannelConfig none = harness::mobile_profile().channel_config();
  harness::apply_profile_overlay("", none);
  EXPECT_EQ(none.a_to_b.dynamics, nullptr);
  EXPECT_EQ(none.b_to_a.dynamics, nullptr);

  net::ChannelConfig flat = harness::mobile_profile().channel_config();
  harness::apply_profile_overlay("flat", flat);
  ASSERT_NE(flat.a_to_b.dynamics, nullptr);
  EXPECT_TRUE(flat.a_to_b.dynamics->profile.constant_rate());
  EXPECT_EQ(flat.a_to_b.dynamics->profile.bandwidth_at(0),
            flat.a_to_b.bandwidth_bps);
}

TEST(NetemOverlay, UnknownProfileNameThrows) {
  net::ChannelConfig cfg = harness::lan_profile().channel_config();
  EXPECT_THROW(harness::apply_profile_overlay("no-such-profile", cfg),
               std::invalid_argument);
}

// ---- Flat identity oracle --------------------------------------------------

TEST(NetemIdentity, FlatProfileIsByteIdenticalToStaticLink) {
  // The strongest form: the per-packet trace, not just the summary. Any
  // extra rng draw, any reformulated serialisation arithmetic, any metric
  // side effect that perturbs event ordering shows up here.
  for (const bool h2 : {false, true}) {
    harness::ExperimentSpec spec =
        h2 ? harness::golden_table4_h2_spec() : harness::golden_table4_spec();
    spec.profile.clear();
    const auto baseline = harness::capture_trace(spec, harness::shared_site());
    spec.profile = "flat";
    const auto flat = harness::capture_trace(spec, harness::shared_site());
    const net::TraceDiff diff = net::diff_traces(baseline, flat);
    EXPECT_TRUE(diff.identical)
        << (h2 ? "table4h2" : "table4") << ": " << diff.differing
        << " records diverged under --profile flat\n"
        << diff.report;
  }
}

TEST(NetemIdentity, FlatProfileReproducesTable6Numbers) {
  harness::ExperimentSpec spec = harness::golden_table6_spec();
  spec.profile.clear();
  const harness::RunResult base = harness::run_once(spec, harness::shared_site());
  spec.profile = "flat";
  const harness::RunResult flat = harness::run_once(spec, harness::shared_site());
  EXPECT_EQ(base.packets(), flat.packets());
  EXPECT_EQ(base.bytes(), flat.bytes());
  EXPECT_EQ(base.seconds(), flat.seconds());  // exact double equality
  EXPECT_EQ(base.overhead_percent(), flat.overhead_percent());
}

// ---- Determinism -----------------------------------------------------------

harness::WorkloadConfig small_mobile_fleet() {
  harness::WorkloadConfig cfg;
  cfg.num_clients = 16;
  cfg.topology = harness::TopologyKind::kStar;
  cfg.arrivals = harness::ArrivalProcess::kPoisson;
  cfg.mean_interarrival = sim::milliseconds(20);
  cfg.access = harness::mobile_profile();
  cfg.profile = "3g-drive";
  cfg.master_seed = 11;
  cfg.client = harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  return cfg;
}

TEST(NetemDeterminism, SameSeedSameResults) {
  const harness::WorkloadResult a =
      harness::run_workload(small_mobile_fleet(), harness::shared_site());
  const harness::WorkloadResult b =
      harness::run_workload(small_mobile_fleet(), harness::shared_site());
  EXPECT_EQ(a.metrics.dump_text(), b.metrics.dump_text());
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_GT(a.metrics.counter("netem.radio_wakeups"), 0u);
}

TEST(NetemDeterminism, ThreadCountDoesNotChangeResults) {
  // The profile lookup is time-indexed, so the sharded engine's lookahead
  // must stay a valid lower bound (min_extra_latency tightening) for the
  // sharded run to replay the classic event order exactly: the whole
  // registry dump must match the one-shard run (DESIGN.md §14).
  harness::WorkloadConfig cfg = small_mobile_fleet();
  const harness::WorkloadResult classic =
      harness::run_workload(cfg, harness::shared_site());
  for (const unsigned threads : {2u, 4u}) {
    cfg.threads = threads;
    const harness::WorkloadResult sharded =
        harness::run_workload(cfg, harness::shared_site());
    EXPECT_EQ(classic.metrics.dump_text(), sharded.metrics.dump_text())
        << "threads=" << threads;
  }
}

TEST(NetemDeterminism, DifferentSeedsDiverge) {
  harness::WorkloadConfig cfg = small_mobile_fleet();
  const harness::WorkloadResult a =
      harness::run_workload(cfg, harness::shared_site());
  cfg.master_seed = 12;
  const harness::WorkloadResult b =
      harness::run_workload(cfg, harness::shared_site());
  EXPECT_NE(a.metrics.dump_text(), b.metrics.dump_text());
}

// ---- Modern content axis ---------------------------------------------------

TEST(NetemContent, ModernSiteIsSmallerAndRenamed) {
  const content::MicroscapeSite& paper = harness::shared_site();
  const content::MicroscapeSite& webp = harness::shared_modern_site();
  ASSERT_EQ(webp.images.size(), paper.images.size());
  EXPECT_LT(webp.total_image_bytes(), paper.total_image_bytes());
  EXPECT_EQ(webp.html.find(".gif"), std::string::npos);
  for (std::size_t i = 0; i < webp.images.size(); ++i) {
    const std::string& path = webp.images[i].path;
    EXPECT_NE(path.find(".webp"), std::string::npos) << path;
    EXPECT_NE(webp.html.find(path), std::string::npos)
        << path << " not referenced by the modern HTML";
    EXPECT_LT(webp.images[i].gif_bytes.size(),
              paper.images[i].gif_bytes.size())
        << path;
  }
  // AVIF-class encodes smaller still.
  const content::MicroscapeSite& avif =
      harness::shared_modern_site(content::ModernCodec::kAvif);
  EXPECT_LT(avif.total_image_bytes(), webp.total_image_bytes());
}

TEST(NetemContent, ModernizeIsDeterministic) {
  const content::MicroscapeSite a =
      content::modernize_site(harness::shared_site());
  const content::MicroscapeSite b =
      content::modernize_site(harness::shared_site());
  ASSERT_EQ(a.images.size(), b.images.size());
  EXPECT_EQ(a.html, b.html);
  for (std::size_t i = 0; i < a.images.size(); ++i) {
    EXPECT_EQ(a.images[i].gif_bytes, b.images[i].gif_bytes) << i;
  }
}

}  // namespace
}  // namespace hsim
