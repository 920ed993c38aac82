// Property tests for the obs metrics layer.
//
//   1. Histogram quantile invariants: monotone in q, bounded by [min, max],
//      and within the documented 1/8 relative error of the exact quantile.
//   2. Merge laws: histogram and registry shard merges (the registries fed
//      by TraceSummarizer taps) are associative and order-independent, and
//      equal the unsharded result.
//   3. Determinism: two same-seed harness runs register identical metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "net/trace.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"

namespace hsim {
namespace {

using obs::Histogram;
using obs::Registry;

// ---- 1. Histogram quantile invariants -------------------------------------

std::vector<std::uint64_t> sample_set(std::uint64_t seed, std::size_t n) {
  sim::Rng rng(seed);
  std::vector<std::uint64_t> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mix of scales: exact small values, mid-range, and heavy tail.
    switch (rng.uniform(0, 3)) {
      case 0: xs.push_back(static_cast<std::uint64_t>(rng.uniform(0, 7))); break;
      case 1: xs.push_back(static_cast<std::uint64_t>(rng.uniform(8, 4096))); break;
      case 2: xs.push_back(static_cast<std::uint64_t>(rng.uniform(4097, 1 << 20))); break;
      default: xs.push_back(rng.next_u64() >> (rng.uniform(1, 40))); break;
    }
  }
  return xs;
}

std::uint64_t exact_quantile(std::vector<std::uint64_t> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

TEST(HistogramProperty, QuantilesMonotoneAndBounded) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<std::uint64_t> xs = sample_set(seed, 500);
    Histogram h;
    for (std::uint64_t x : xs) h.observe(x);

    const std::uint64_t lo = *std::min_element(xs.begin(), xs.end());
    const std::uint64_t hi = *std::max_element(xs.begin(), xs.end());
    EXPECT_EQ(h.min(), lo);
    EXPECT_EQ(h.max(), hi);
    EXPECT_EQ(h.count(), xs.size());

    std::uint64_t prev = 0;
    for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
      const std::uint64_t v = h.quantile(q);
      EXPECT_GE(v, prev) << "quantile not monotone at q=" << q << " seed=" << seed;
      EXPECT_GE(v, lo);
      EXPECT_LE(v, hi);
      prev = v;
    }
    EXPECT_LE(h.p50(), h.p95());
    EXPECT_LE(h.p95(), h.p99());
  }
}

TEST(HistogramProperty, QuantileWithinDocumentedError) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<std::uint64_t> xs = sample_set(seed, 500);
    Histogram h;
    for (std::uint64_t x : xs) h.observe(x);
    for (double q : {0.5, 0.9, 0.95, 0.99}) {
      const std::uint64_t exact = exact_quantile(xs, q);
      const std::uint64_t approx = h.quantile(q);
      // The histogram reports the upper edge of the exact sample's bucket:
      // never below the exact value, and at most one sub-bucket width above
      // (2^(msb-2), i.e. at most 1/4 of the value; +1 covers integer edges).
      EXPECT_GE(approx, exact) << "q=" << q << " seed=" << seed;
      EXPECT_LE(approx, exact + exact / 4 + 1) << "q=" << q << " seed=" << seed;
    }
  }
}

TEST(HistogramProperty, BucketEdgesConsistent) {
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{8},
        std::uint64_t{9}, std::uint64_t{1023}, std::uint64_t{1024},
        std::uint64_t{1025}, std::uint64_t{1} << 32, UINT64_MAX >> 1}) {
    const std::size_t b = Histogram::bucket_of(v);
    EXPECT_LT(b, Histogram::kBuckets);
    EXPECT_GE(Histogram::bucket_upper(b), v) << v;
    if (b > 0) {
      EXPECT_LT(Histogram::bucket_upper(b - 1), v) << v;
    }
  }
}

// ---- 2. Merge laws ---------------------------------------------------------

TEST(HistogramProperty, ShardMergeEqualsUnsharded) {
  const std::vector<std::uint64_t> xs = sample_set(42, 900);
  Histogram all, s0, s1, s2;
  Histogram* shards[3] = {&s0, &s1, &s2};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    all.observe(xs[i]);
    shards[i % 3]->observe(xs[i]);
  }
  // (s0 ⊕ s1) ⊕ s2 and s2 ⊕ (s1 ⊕ s0): both must equal the unsharded result.
  Histogram left;
  left.merge_from(s0);
  left.merge_from(s1);
  left.merge_from(s2);
  Histogram right;
  right.merge_from(s2);
  right.merge_from(s1);
  right.merge_from(s0);
  for (const Histogram* m : {&left, &right}) {
    EXPECT_EQ(m->count(), all.count());
    EXPECT_EQ(m->sum(), all.sum());
    EXPECT_EQ(m->min(), all.min());
    EXPECT_EQ(m->max(), all.max());
    for (double q : {0.5, 0.95, 0.99}) {
      EXPECT_EQ(m->quantile(q), all.quantile(q));
    }
  }
}

net::Packet make_packet(sim::Rng& rng, net::IpAddr server) {
  net::Packet p;
  const bool to_server = rng.uniform(0, 1) == 0;
  const auto client = static_cast<net::IpAddr>(rng.uniform(10, 20));
  p.src = to_server ? client : server;
  p.dst = to_server ? server : client;
  p.tcp.src_port = static_cast<net::Port>(rng.uniform(1024, 60000));
  p.tcp.dst_port = 80;
  p.tcp.flags = rng.uniform(0, 9) == 0
                    ? static_cast<std::uint8_t>(net::flag::kSyn)
                    : static_cast<std::uint8_t>(net::flag::kAck);
  p.payload =
      buf::Bytes(static_cast<std::size_t>(rng.uniform(0, 1460)), 'x');
  return p;
}

TEST(RegistryProperty, MergeAssociativeAcrossShards) {
  // Three shard registries fed by TraceSummarizers over a partition of one
  // packet stream; merged in two different orders, both must match the
  // registry that saw everything.
  constexpr net::IpAddr kServer = 1;
  sim::Rng rng(11);
  std::vector<net::Packet> packets;
  for (int i = 0; i < 300; ++i) packets.push_back(make_packet(rng, kServer));

  Registry whole;
  Registry shard[3];
  {
    obs::ScopedRegistry install(&whole);
    net::TraceSummarizer s(kServer);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      s.record(static_cast<sim::Time>(i) * 1000, packets[i]);
    }
  }
  for (int k = 0; k < 3; ++k) {
    obs::ScopedRegistry install(&shard[k]);
    net::TraceSummarizer s(kServer);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      if (static_cast<int>(i % 3) == k) {
        s.record(static_cast<sim::Time>(i) * 1000, packets[i]);
      }
    }
  }

  Registry left;
  left.merge_from(shard[0]);
  left.merge_from(shard[1]);
  left.merge_from(shard[2]);
  Registry right;
  right.merge_from(shard[2]);
  right.merge_from(shard[1]);
  right.merge_from(shard[0]);

  // Counters must match the unsharded registry exactly. (Gauges are
  // last-value metrics — trace.first/last_packet_ns differ per shard by
  // construction, so the counter comparison is the meaningful law here.)
  const obs::Snapshot w = whole.snapshot();
  const obs::Snapshot l = left.snapshot();
  const obs::Snapshot r = right.snapshot();
  EXPECT_EQ(l.counters, w.counters);
  EXPECT_EQ(r.counters, w.counters);
  EXPECT_EQ(l.histograms.size(), w.histograms.size());
}

// ---- 3. Determinism --------------------------------------------------------

TEST(RegistryProperty, SameSeedRunsProduceIdenticalRegistries) {
  harness::ExperimentSpec spec;
  spec.network = harness::lan_profile();
  spec.client = harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  spec.seed = 3;

  const harness::RunResult a = harness::run_once(spec, harness::shared_site());
  const harness::RunResult b = harness::run_once(spec, harness::shared_site());
  ASSERT_TRUE(a.robot.complete);
  // Whole-registry equality: every counter, gauge, peak and histogram.
  EXPECT_EQ(a.metrics.dump_text(), b.metrics.dump_text());
  EXPECT_FALSE(a.metrics.counters.empty());
  // The run registered metrics from every instrumented layer.
  for (const char* name :
       {"trace.packets", "tcp.segments_sent", "net.link.packets_sent",
        "server.requests_served", "client.requests_sent"}) {
    EXPECT_GT(a.metrics.counter(name), 0u) << name;
  }
}

TEST(RegistryProperty, DifferentSeedPerturbsRegistry) {
  harness::ExperimentSpec spec;
  spec.network = harness::wan_profile();
  spec.client = harness::robot_config(client::ProtocolMode::kHttp10Parallel);
  spec.seed = 3;
  const harness::RunResult a = harness::run_once(spec, harness::shared_site());
  spec.seed = 4;
  const harness::RunResult b = harness::run_once(spec, harness::shared_site());
  EXPECT_NE(a.metrics.dump_text(), b.metrics.dump_text());
}

}  // namespace
}  // namespace hsim
