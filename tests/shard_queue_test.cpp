// Laws of the sharded engine and the EventKey-ordered queue.
//
// Three families:
//   - EventQueue's sharded surface: the canonical (when, sched, src, seq)
//     order, schedule_cross's no-past-clamp contract, and the cancellation /
//     lazy-compaction laws ported from event_queue_test.cpp onto the extended
//     key (cancelling cross-shard events, purge-on-peek, pending counts).
//   - ShardedEngine rounds: lookahead is never violated by a legal schedule,
//     the violation detector fires on a deliberately overstated lookahead,
//     messages are conserved across shard boundaries (ping-pong and a real
//     net::Link crossing), and epochs fire at barriers with exactly the
//     events before the epoch instant executed.
//   - One shard is a bare EventQueue: a randomized schedule / cancel /
//     re-arm workload runs in the same order, with the same event counts and
//     clock, through both; an epoch counts as one event.
//   - Thread-count invariance at the engine level: a scripted multi-shard
//     cascade produces an identical per-shard execution log at T=1/2/3/4.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/shard.hpp"
#include "sim/time.hpp"

namespace hsim {
namespace {

using sim::EventKey;
using sim::EventQueue;
using sim::ShardedEngine;
using sim::Time;

// ---- EventKey ordering ----------------------------------------------------

TEST(EventKeyTest, OrdersLexicographically) {
  const EventKey base{100, 50, 2, 7};
  EXPECT_FALSE(base < base);
  EXPECT_TRUE((EventKey{99, 99, 9, 9}) < base);   // earlier fire time wins
  EXPECT_TRUE((EventKey{100, 49, 9, 9}) < base);  // then earlier schedule time
  EXPECT_TRUE((EventKey{100, 50, 1, 9}) < base);  // then lower source shard
  EXPECT_TRUE((EventKey{100, 50, 2, 6}) < base);  // then lower sequence
  EXPECT_TRUE(base < (EventKey{100, 50, 2, 8}));
}

// ---- EventQueue sharded surface -------------------------------------------

TEST(ShardQueueTest, CrossEventsInterleaveCanonicallyWithLocals) {
  EventQueue q;
  q.set_shard(2);
  std::vector<std::string> order;
  // All four fire at t=200 with sched=0; the canonical order is by source
  // shard then per-source sequence, with this queue's own events sitting at
  // src=2 between the src=0 and src=3 injections.
  q.schedule_at(200, [&] { order.push_back("local.a"); });
  q.schedule_at(200, [&] { order.push_back("local.b"); });
  q.schedule_cross(EventKey{200, 0, 3, 1}, [&] { order.push_back("s3.1"); });
  q.schedule_cross(EventKey{200, 0, 0, 2}, [&] { order.push_back("s0.2"); });
  q.schedule_cross(EventKey{200, 0, 0, 1}, [&] { order.push_back("s0.1"); });
  q.run();
  EXPECT_EQ(order, (std::vector<std::string>{"s0.1", "s0.2", "local.a",
                                             "local.b", "s3.1"}));
}

TEST(ShardQueueTest, SameTimeLocalEventsRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(10, [&] { order.push_back(2); });
  q.schedule_at(10, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ShardQueueTest, LaterScheduleTimeOrdersAfterAtSameFireTime) {
  EventQueue q;
  std::vector<std::string> order;
  // An event scheduled *at* t=5 for t=20 must run after a cross event that
  // was scheduled at t=0 for t=20, even though the cross source shard (9) is
  // higher: sched dominates src in the key.
  q.schedule_cross(EventKey{20, 0, 9, 1}, [&] { order.push_back("early"); });
  q.schedule_at(5, [&] {
    q.schedule_at(20, [&] { order.push_back("late"); });
  });
  q.run();
  EXPECT_EQ(order, (std::vector<std::string>{"early", "late"}));
}

TEST(ShardQueueTest, ScheduleCrossDoesNotClampPastTimes) {
  EventQueue q;
  q.advance_to(100);
  bool ran = false;
  q.schedule_cross(EventKey{50, 40, 1, 1}, [&] { ran = true; });
  // The key must surface as-is: a clamped fire time would hide a lookahead
  // violation instead of letting the engine's detector count it.
  EXPECT_EQ(q.next_event_time(), 50);
  EXPECT_TRUE(q.step());
  EXPECT_TRUE(ran);
}

TEST(ShardQueueTest, CancelPreventsExecutionIncludingCrossEvents) {
  EventQueue q;
  bool local_ran = false, cross_ran = false, kept = false;
  const sim::TimerId a = q.schedule_at(10, [&] { local_ran = true; });
  const sim::TimerId b =
      q.schedule_cross(EventKey{10, 0, 1, 1}, [&] { cross_ran = true; });
  q.schedule_at(20, [&] { kept = true; });
  EXPECT_TRUE(q.cancel(a));
  EXPECT_TRUE(q.cancel(b));
  EXPECT_FALSE(q.cancel(b));  // already cancelled
  q.run();
  EXPECT_FALSE(local_ran);
  EXPECT_FALSE(cross_ran);
  EXPECT_TRUE(kept);
}

TEST(ShardQueueTest, PendingCountExcludesCancelled) {
  EventQueue q;
  const sim::TimerId a = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  q.schedule_cross(EventKey{30, 0, 1, 1}, [] {});
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_FALSE(q.empty());
}

TEST(ShardQueueTest, NextEventTimePurgesCancelledTop) {
  EventQueue q;
  const sim::TimerId a = q.schedule_at(10, [] {});
  q.schedule_at(20, [] {});
  EXPECT_TRUE(q.cancel(a));
  // The cancelled earliest event must not be reported as the next event —
  // the engine derives t_min (and thus round boundaries) from this value.
  EXPECT_EQ(q.next_event_time(), 20);
  EXPECT_EQ(q.pending(), 1u);
}

// ---- ShardedEngine rounds --------------------------------------------------

TEST(ShardedEngineTest, LegalScheduleNeverViolatesLookahead) {
  ShardedEngine::Config config;
  config.shards = 2;
  config.threads = 2;
  config.lookahead = 100;
  ShardedEngine engine(config);

  // Ping-pong: every delivery re-posts to the other shard at now+150 > W
  // until the horizon. Every message posted must be delivered exactly once.
  int sent = 0, received = 0;
  std::function<void(std::size_t)> bounce = [&](std::size_t self) {
    ++received;
    const Time now = engine.queue(self).now();
    if (now >= 5000) return;
    ++sent;
    engine.post(1 - self, now + 150,
                [&bounce, other = 1 - self] { bounce(other); });
  };
  engine.queue(0).schedule_at(0, [&] {
    ++sent;
    engine.post(1, engine.queue(0).now() + 150, [&bounce] { bounce(1); });
  });

  const std::size_t executed = engine.run_until(10'000);
  EXPECT_EQ(engine.lookahead_violations(), 0u);
  EXPECT_EQ(received, sent);
  EXPECT_GT(received, 30);  // 5000 / 150 hops plus the kick-off
  // Kick-off event + one event per delivered message.
  EXPECT_EQ(executed, static_cast<std::size_t>(received) + 1);
}

TEST(ShardedEngineTest, ViolationDetectorFiresOnOverstatedLookahead) {
  ShardedEngine::Config config;
  config.shards = 2;
  config.threads = 1;
  config.lookahead = 1000;  // deliberately larger than the true 10ns latency
  ShardedEngine engine(config);

  int delivered = 0;
  engine.queue(0).schedule_at(0, [&] {
    engine.post(1, engine.queue(0).now() + 10, [&] { ++delivered; });
  });
  engine.run_until(5000);
  // The message's fire time (10) fell inside the round [0, 1000) its
  // destination had already executed: counted, but still delivered — the
  // detector reports causality breaks, it does not drop events.
  EXPECT_EQ(engine.lookahead_violations(), 1u);
  EXPECT_EQ(delivered, 1);
}

TEST(ShardedEngineTest, CrossShardTieBreakIsCanonical) {
  for (unsigned threads : {1u, 2u, 3u}) {
    ShardedEngine::Config config;
    config.shards = 3;
    config.threads = threads;
    config.lookahead = 100;
    ShardedEngine engine(config);

    std::vector<std::string> order;
    // Shards 0 and 1 each post two messages to shard 2, all colliding on
    // fire time 200 and schedule time 0; shard 2 also holds a local event at
    // the same instant. Canonical order is by (src, seq): sender 0's pair,
    // sender 1's pair, then the local event (src=2).
    engine.queue(2).schedule_at(200, [&] { order.push_back("local"); });
    engine.queue(0).schedule_at(0, [&] {
      engine.post(2, 200, [&] { order.push_back("s0.first"); });
      engine.post(2, 200, [&] { order.push_back("s0.second"); });
    });
    engine.queue(1).schedule_at(0, [&] {
      engine.post(2, 200, [&] { order.push_back("s1.first"); });
      engine.post(2, 200, [&] { order.push_back("s1.second"); });
    });
    engine.run_until(1000);
    EXPECT_EQ(order,
              (std::vector<std::string>{"s0.first", "s0.second", "s1.first",
                                        "s1.second", "local"}))
        << "at threads=" << threads;
    EXPECT_EQ(engine.lookahead_violations(), 0u);
  }
}

TEST(ShardedEngineTest, CancelAcrossRoundsPreventsExecution) {
  ShardedEngine::Config config;
  config.shards = 2;
  config.threads = 2;
  config.lookahead = 100;
  ShardedEngine engine(config);

  bool victim_ran = false;
  const sim::TimerId victim =
      engine.queue(0).schedule_at(500, [&] { victim_ran = true; });
  engine.queue(0).schedule_at(100, [&] { engine.queue(0).cancel(victim); });
  engine.run_until(1000);
  EXPECT_FALSE(victim_ran);
  EXPECT_TRUE(engine.queue(0).empty());
}

/// A real link crossing the shard boundary: transmission, serialisation,
/// stats and rng draws on shard 0; delivery posted to shard 1. Packets are
/// conserved: everything the link reports sent arrives exactly once.
TEST(ShardedEngineTest, LinkCrossingConservesPackets) {
  struct CountingSink : net::PacketSink {
    int delivered = 0;
    Time last_at = 0;
    EventQueue* queue = nullptr;
    void deliver(net::Packet) override {
      ++delivered;
      last_at = queue->now();
    }
  };

  net::LinkConfig link_config;
  link_config.bandwidth_bps = 8'000'000;  // 1 byte/us
  link_config.propagation_delay = sim::milliseconds(1);
  link_config.queue_limit_packets = 64;

  ShardedEngine::Config config;
  config.shards = 2;
  config.threads = 2;
  // With zero jitter the link's guaranteed minimum cross-shard latency is
  // exactly the propagation delay; the assertion below pins that equation.
  config.lookahead = link_config.propagation_delay;
  ShardedEngine real(config);
  CountingSink sink;
  sink.queue = &real.queue(1);
  net::Link link(real.queue(0), link_config, sim::Rng(7));
  ASSERT_EQ(link.min_remote_latency(), config.lookahead);
  link.set_sink(&sink);
  link.set_remote_deliver([&](Time when, net::Packet packet) {
    real.post(1, when, [&sink, p = std::move(packet)]() mutable {
      sink.deliver(std::move(p));
    });
  });

  constexpr int kPackets = 32;
  real.queue(0).schedule_at(0, [&] {
    for (int i = 0; i < kPackets; ++i) {
      net::Packet packet;
      packet.src = 1;
      packet.dst = 2;
      link.transmit(packet);
    }
  });
  real.run_until(sim::seconds(1));

  EXPECT_EQ(link.stats().packets_sent, static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(sink.delivered, kPackets);
  EXPECT_EQ(real.lookahead_violations(), 0u);
  // Last delivery: 32 serialisations of 40B back to back + propagation.
  EXPECT_GE(sink.last_at, link_config.propagation_delay);
}

TEST(ShardedEngineTest, EpochsFireAtBarriersBetweenRounds) {
  ShardedEngine::Config config;
  config.shards = 2;
  config.threads = 2;
  config.lookahead = 100;
  ShardedEngine engine(config);

  std::vector<Time> executed[2];
  for (std::size_t s = 0; s < 2; ++s) {
    for (Time t : {Time{50}, Time{150}, Time{250}}) {
      engine.queue(s).schedule_at(
          t, [&executed, s, t] { executed[s].push_back(t); });
    }
  }
  struct EpochObs {
    Time at;
    std::size_t done0, done1;
  };
  std::vector<EpochObs> epochs;
  engine.set_epochs(100, 300, [&](Time at) {
    // Fired at a barrier with all workers parked: reading both shards' logs
    // is safe, and exactly the events strictly before `at` have executed.
    epochs.push_back({at, executed[0].size(), executed[1].size()});
  });
  const std::size_t total = engine.run_until(400);

  ASSERT_EQ(epochs.size(), 3u);
  EXPECT_EQ(epochs[0].at, 100);
  EXPECT_EQ(epochs[0].done0, 1u);  // only t=50 has run
  EXPECT_EQ(epochs[0].done1, 1u);
  EXPECT_EQ(epochs[1].at, 200);
  EXPECT_EQ(epochs[1].done0, 2u);
  EXPECT_EQ(epochs[2].at, 300);
  EXPECT_EQ(epochs[2].done0, 3u);
  EXPECT_EQ(total, 6u + 3u);  // six events plus one per epoch firing
}

TEST(ShardedEngineTest, ClockMirrorsRunUntilSemantics) {
  ShardedEngine::Config config;
  config.shards = 2;
  config.threads = 1;
  config.lookahead = 10;
  ShardedEngine engine(config);

  engine.queue(0).schedule_at(100, [] {});
  EXPECT_EQ(engine.run_until(50), 0u);
  EXPECT_EQ(engine.now(), 50);  // event pending beyond the deadline
  EXPECT_EQ(engine.run_until(200), 1u);
  EXPECT_EQ(engine.now(), 100);  // queue drained: time of the last event
}

// ---- One shard is a bare EventQueue ----------------------------------------

/// A seeded schedule / cancel / re-arm workload against one queue. Every
/// event logs its label and clock, then draws children (some at the same
/// instant, to exercise insertion-order ties), cancels a random outstanding
/// event and re-arms one of three restartable timers. It stops spawning
/// after `budget` events, so every run drains.
class RandomWorkload {
 public:
  RandomWorkload(EventQueue& q, std::uint64_t seed, int budget)
      : q_(q), rng_(seed), budget_(budget) {
    for (auto& t : timers_) t = std::make_unique<sim::Timer>(q);
    for (int i = 0; i < 4; ++i) spawn(rng_.uniform(0, 40));
  }

  std::vector<std::string> log;

 private:
  void spawn(Time delay) {
    const int label = next_label_++;
    ids_.push_back(q_.schedule_in(delay, [this, label] { fire(label); }));
  }

  void fire(int label) {
    log.push_back(std::to_string(label) + "@" + std::to_string(q_.now()));
    if (next_label_ >= budget_) return;
    const auto children = rng_.uniform(0, 3);
    for (std::int64_t c = 0; c < children; ++c) {
      spawn(rng_.chance(0.25) ? 0 : rng_.uniform(1, 60));
    }
    if (rng_.chance(0.3) && !ids_.empty()) {
      const auto k = static_cast<std::size_t>(
          rng_.uniform(0, static_cast<std::int64_t>(ids_.size()) - 1));
      q_.cancel(ids_[k]);
    }
    if (rng_.chance(0.4)) {
      const auto k = static_cast<std::size_t>(rng_.uniform(0, 2));
      timers_[k]->arm(rng_.uniform(0, 80), [this, k] {
        log.push_back("timer" + std::to_string(k) + "@" +
                      std::to_string(q_.now()));
      });
    }
  }

  EventQueue& q_;
  sim::Rng rng_;
  int budget_;
  int next_label_ = 0;
  std::vector<sim::TimerId> ids_;
  std::unique_ptr<sim::Timer> timers_[3];
};

ShardedEngine::Config one_shard() {
  ShardedEngine::Config config;
  config.shards = 1;
  config.threads = 4;  // clamped to the shard count
  return config;
}

TEST(ShardedEngineTest, OneShardMatchesBareEventQueue) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    EventQueue bare;
    RandomWorkload expected(bare, seed, 400);
    ShardedEngine engine(one_shard());
    RandomWorkload actual(engine.queue(0), seed, 400);
    std::size_t rounds = 0;
    engine.set_shard_enter([&rounds](std::size_t) { ++rounds; });

    // Deadlines that leave events pending, an idle gap, and a final one
    // past the end of the workload.
    for (Time deadline : {Time{50}, Time{50}, Time{120}, Time{400},
                          Time{2000}, Time{100000}}) {
      rounds = 0;
      const std::size_t ran = bare.run_until(deadline);
      EXPECT_EQ(engine.run_until(deadline), ran) << "deadline " << deadline;
      EXPECT_EQ(engine.now(), bare.now()) << "deadline " << deadline;
      EXPECT_EQ(engine.queue(0).now(), bare.now());
      // No crossings: a round is bounded only by the deadline.
      EXPECT_EQ(rounds, ran > 0 ? 1u : 0u) << "deadline " << deadline;
    }
    EXPECT_EQ(bare.next_event_time(), EventQueue::kNoEvent);
    EXPECT_EQ(engine.queue(0).next_event_time(), EventQueue::kNoEvent);
    EXPECT_TRUE(bare.empty());
    EXPECT_TRUE(engine.queue(0).empty());
    EXPECT_GT(expected.log.size(), 300u);
    EXPECT_EQ(actual.log, expected.log) << "seed " << seed;
  }
}

TEST(ShardedEngineTest, OneShardEpochIsOneEvent) {
  constexpr Time kInterval = 150;
  constexpr Time kLast = 1200;
  EventQueue bare;
  RandomWorkload expected(bare, 9, 300);
  std::vector<Time> bare_epochs;
  for (Time t = kInterval; t <= kLast; t += kInterval) {
    bare.schedule_at(t, [&bare_epochs, &bare] {
      bare_epochs.push_back(bare.now());
    });
  }
  ShardedEngine engine(one_shard());
  RandomWorkload actual(engine.queue(0), 9, 300);
  std::vector<Time> engine_epochs;
  engine.set_epochs(kInterval, kLast, [&](Time at) {
    EXPECT_EQ(engine.queue(0).now(), at);
    engine_epochs.push_back(at);
  });

  for (Time deadline : {Time{100}, Time{450}, Time{451}, Time{1000},
                        Time{100000}}) {
    const std::size_t ran = bare.run_until(deadline);
    EXPECT_EQ(engine.run_until(deadline), ran) << "deadline " << deadline;
    EXPECT_EQ(engine.now(), bare.now()) << "deadline " << deadline;
    EXPECT_EQ(engine_epochs, bare_epochs) << "deadline " << deadline;
  }
  EXPECT_EQ(engine_epochs.size(), static_cast<std::size_t>(kLast / kInterval));
  EXPECT_EQ(actual.log, expected.log);
}

TEST(ShardedEngineTest, RoundBoundDoesNotOverflow) {
  // t_min + W and deadline + 1 would both overflow here; the round bound must
  // saturate at the deadline instead.
  ShardedEngine::Config config;
  config.shards = 2;
  config.lookahead = sim::kNever;
  ShardedEngine engine(config);
  engine.queue(0).schedule_at(5, [] {});
  engine.queue(1).schedule_at(7, [] {});
  EXPECT_EQ(engine.run_until(sim::kNever), 2u);
  EXPECT_EQ(engine.now(), 7);
  EXPECT_EQ(engine.lookahead_violations(), 0u);
}

// ---- Thread-count invariance at the engine level ---------------------------

/// A four-shard cascade: staggered initial events, every delivery re-posts to
/// the next shard with a deterministic, hop-dependent delay >= W. Returns the
/// per-shard logs concatenated in shard order.
std::vector<std::string> run_cascade(unsigned threads) {
  ShardedEngine::Config config;
  config.shards = 4;
  config.threads = threads;
  config.lookahead = 100;
  ShardedEngine engine(config);

  std::vector<std::vector<std::string>> logs(4);
  std::function<void(std::size_t, int)> hop = [&](std::size_t shard,
                                                  int depth) {
    logs[shard].push_back("t=" +
                          std::to_string(engine.queue(shard).now()) +
                          " d=" + std::to_string(depth));
    if (depth >= 12) return;
    const Time delay = 120 + (depth * 37) % 80;
    engine.post((shard + 1) % 4, engine.queue(shard).now() + delay,
                [&hop, next = (shard + 1) % 4, depth] { hop(next, depth + 1); });
  };
  for (std::size_t s = 0; s < 4; ++s) {
    engine.queue(s).schedule_at(10 * (s + 1),
                                [&hop, s] { hop(s, 0); });
  }
  engine.run_until(sim::seconds(1));
  EXPECT_EQ(engine.lookahead_violations(), 0u);

  std::vector<std::string> flat;
  for (std::size_t s = 0; s < 4; ++s) {
    for (const std::string& line : logs[s]) {
      flat.push_back("shard" + std::to_string(s) + " " + line);
    }
  }
  return flat;
}

TEST(ShardedEngineTest, CascadeIsThreadCountInvariant) {
  const std::vector<std::string> base = run_cascade(1);
  ASSERT_GE(base.size(), 4u * 13u);  // every hop chain ran to depth 12
  for (unsigned threads : {2u, 3u, 4u}) {
    EXPECT_EQ(run_cascade(threads), base) << "at threads=" << threads;
  }
}

}  // namespace
}  // namespace hsim
