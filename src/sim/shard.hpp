// Host-sharded parallel discrete-event engine (conservative lookahead).
//
// The engine behind the harness's fleets (harness::run_workload; run_once
// runs on a bare EventQueue). It partitions the simulation into S
// shards, each owning a private EventQueue and the components that schedule
// against it (hosts, robots, the links whose transmitter they drive). Shards
// only interact through explicit cross-shard messages (post()), which a
// component emits instead of scheduling directly on another shard's queue —
// net::Link's remote-delivery hook is the one emitter in the stack today.
// S = 1 is the single-queue simulation: no crossings, so every round runs to
// the deadline (or the next epoch) and the shard's queue executes exactly
// what a bare EventQueue would, in the same order.
//
// Execution follows Shadow's conservative barrier design. Let W be the
// lookahead: the minimum latency any cross-shard message can experience
// between being posted and firing (for links, the propagation delay shrunk by
// the worst-case jitter). Rounds then work as follows:
//
//   1. Barrier (single-threaded): pending cross-shard messages are injected
//      into their destination queues in canonical order; the global minimum
//      next-event time t_min is computed.
//   2. Round: every shard runs its queue up to t_min + W (exclusive) in
//      parallel. Any message posted during the round fires at or after
//      post_time + W >= t_min + W, i.e. strictly beyond the round, so no
//      shard can ever miss a message that should have preceded an event it
//      already executed. Rounds skip idle gaps entirely: quiet periods (RTO
//      waits, think times) cost one barrier, not horizon/W barriers.
//
// Determinism argument (DESIGN.md section 14 for the long form): the round
// structure — t_min sequence, round boundaries, injection order, and every
// queue's event order — is a pure function of (shard count, lookahead,
// partition, seeds). Worker threads only decide *which OS thread* executes a
// shard's slice, never the order of events within a shard or across barriers.
// Hence T=1 and T=8 runs of the same sharded configuration are byte-identical
// by construction, and the thread count is a pure performance knob.
//
// Cross-shard messages carry the sender's full EventKey (fire time, schedule
// time, source shard, per-source sequence), and destination queues order all
// events by that key. A single global queue orders by (fire time, global
// insertion order); the sharded order coincides with it except when two
// events from different shards collide on BOTH fire time and schedule time —
// a double coincidence the workload thread matrix (star and dumbbell fleets,
// tests/parallel_determinism_test.cpp) empirically rules out for the pinned
// scenarios.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace hsim::sim {

class ShardedEngine {
 public:
  struct Config {
    std::size_t shards = 1;
    /// Worker threads; clamped to [1, shards]. Pure performance knob: any
    /// value produces byte-identical results for a fixed shard count.
    unsigned threads = 1;
    /// Synchronization horizon W: a lower bound on the fire-minus-post time
    /// of every cross-shard message. Must be >= 1 ns; larger is faster
    /// (longer rounds, fewer barriers) but must never exceed the true
    /// minimum cross-shard latency or causality breaks (and is counted in
    /// lookahead_violations()). Unused at one shard, which has no crossings.
    Time lookahead = 1;
  };

  explicit ShardedEngine(Config config);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  EventQueue& queue(std::size_t shard) { return *queues_[shard]; }

  /// Engine clock, mirroring EventQueue::now() semantics across the whole
  /// simulation: after run_until(d) it reads d if any shard still has
  /// pending events, else the time of the last executed event. Every
  /// shard's queue clock reads the same after run_until returns.
  Time now() const { return now_; }

  /// Posts a cross-shard event. MUST be called from within an executing
  /// event (a worker running some shard's slice); the message carries that
  /// shard's current time as its schedule time plus a per-shard sequence,
  /// making the injection order canonical and thread-count independent.
  void post(std::size_t dst_shard, Time when, EventQueue::Callback cb);

  /// The executing shard of a thread outside any slice.
  static constexpr std::size_t kNoShard = ~std::size_t{0};

  /// Called on the executing thread right before a shard's slice runs each
  /// round. The harness installs the shard's metrics registry here.
  using ShardHook = std::function<void(std::size_t shard)>;
  void set_shard_enter(ShardHook hook) { enter_ = std::move(hook); }

  /// Fires `fn(t)` at every t = interval, 2*interval, ... <= last, at a
  /// barrier with all workers parked and every event before t executed and
  /// none at or after t — the safe instant for invariant oracles to walk
  /// shared state. Every shard's clock reads t during the call. Each firing
  /// counts as one executed event, as if the epoch were a scheduled event.
  void set_epochs(Time interval, Time last, std::function<void(Time)> fn);

  /// Runs all shards in rounds until every event with time <= deadline has
  /// executed. Returns the number of events executed by this call.
  std::size_t run_until(Time deadline);

  /// Cross-shard messages that arrived too late: their fire time fell inside
  /// a round their destination shard had already executed. Always 0 when the
  /// configured lookahead is a true lower bound on cross-shard latency; the
  /// property tests construct deliberate violations to prove the detector
  /// works.
  std::uint64_t lookahead_violations() const { return violations_; }

 private:
  struct Message {
    std::size_t dst;
    EventKey key;
    EventQueue::Callback fn;
  };
  /// Per-shard state the owning worker writes during a round, padded so two
  /// workers never share a cache line.
  struct alignas(64) ShardState {
    std::vector<Message> outbox;   // messages posted by this shard
    std::uint64_t msg_seq = 1;     // per-shard cross-message sequence
    std::size_t executed = 0;      // events run so far (all rounds)
  };

  void run_slice(unsigned worker);
  void worker_main(unsigned worker);
  void inject_pending();

  Config config_;
  std::vector<std::unique_ptr<EventQueue>> queues_;
  std::vector<ShardState> shards_;
  std::vector<std::vector<std::size_t>> assignment_;  // worker -> shards
  ShardHook enter_;

  Time epoch_interval_ = 0;
  Time epoch_last_ = 0;
  Time next_epoch_ = 0;
  std::function<void(Time)> on_epoch_;
  std::size_t epoch_events_ = 0;

  Time now_ = 0;
  Time round_last_ = 0;        // inclusive bound of the round in flight
  Time last_round_last_ = -1;  // violation watermark for late messages
  std::uint64_t violations_ = 0;

  // Round hand-off: the coordinator bumps generation_ to release workers,
  // each worker bumps done_ when its slice finishes. Spin-then-yield keeps
  // barrier latency low without burning a core while parked.
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<unsigned> done_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace hsim::sim
