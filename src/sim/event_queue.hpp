// Discrete-event scheduler.
//
// The EventQueue is the heart of the simulator: every component (links, TCP
// timers, application timeouts) schedules callbacks at absolute simulated
// times, and the queue executes them in (time, insertion-order) order.
// Execution is fully deterministic: two events scheduled for the same instant
// run in the order they were scheduled.
//
// The full ordering key is (fire time, schedule time, source shard,
// sequence). For a single queue the extra fields are invisible: schedule
// times are non-decreasing in sequence order (time only moves forward), and
// every local event carries the same source shard, so the order collapses to
// the classic (time, insertion-order). They exist for the sharded engine
// (sim/shard.hpp), where events injected from another shard's queue must
// interleave with local events in a canonical, thread-count-independent
// order.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_set>
#include <vector>

#include "sim/time.hpp"

namespace hsim::sim {

/// Identifies a scheduled event so it can be cancelled.
struct TimerId {
  std::uint64_t value = 0;

  friend bool operator==(TimerId a, TimerId b) { return a.value == b.value; }
  explicit operator bool() const { return value != 0; }
};

/// The canonical total order on events: fire time, then schedule time, then
/// source shard, then per-source sequence. Cross-shard deliveries carry the
/// sender's key so they land in the same position they would have held in a
/// single global queue (see sim/shard.hpp for the determinism argument).
struct EventKey {
  Time when = 0;
  Time sched = 0;           // queue time at the instant it was scheduled
  std::uint32_t src = 0;    // shard that scheduled it
  std::uint64_t seq = 0;    // per-source insertion order

  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.sched != b.sched) return a.sched < b.sched;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  }
};

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time. Advances only as events are executed.
  Time now() const { return now_; }

  /// Schedules `cb` to run at absolute time `when`. Times in the past are
  /// clamped to `now()` (the event still runs, immediately after the current
  /// event finishes).
  TimerId schedule_at(Time when, Callback cb);

  /// Schedules `cb` to run `delay` nanoseconds from now.
  TimerId schedule_in(Time delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Returns false for a null or never-issued id
  /// and for an id already cancelled. Cancellation is lazy, so an issued id
  /// whose event already ran also returns true (the first time): nothing
  /// runs, and the stale id only holds a set entry until the next
  /// compaction.
  bool cancel(TimerId id);

  /// Runs the single next event. Returns false if the queue is empty.
  bool step();

  /// Runs events until the queue is empty. Returns the number executed.
  std::size_t run();

  /// Runs events with time <= `deadline`; afterwards now() == deadline if any
  /// later events remain pending, or the time of the last executed event.
  std::size_t run_until(Time deadline);

  /// Runs events for `duration` from the current time.
  std::size_t run_for(Time duration) { return run_until(now_ + duration); }

  /// Number of pending (non-cancelled) events: the heap's live entries.
  /// O(heap); `cancelled_` may also hold ids whose events already ran, so
  /// its size is no count of the dead heap entries.
  std::size_t pending() const;

  bool empty() const { return pending() == 0; }

  /// Pre-sizes the heap (a 1000-client workload holds tens of thousands of
  /// timers at once; avoiding regrowth copies of std::function is measurable).
  void reserve(std::size_t n) { heap_.reserve(n); }

  // ---- Sharded-engine surface (sim/shard.hpp) -----------------------------
  // A standalone queue never needs any of this; the defaults leave behaviour
  // identical to the classic single-queue scheduler.

  /// This queue's shard id, stamped as EventKey::src on local events.
  void set_shard(std::uint32_t shard) { shard_ = shard; }
  std::uint32_t shard() const { return shard_; }

  /// Injects an event scheduled by another shard, carrying the sender's key
  /// so it sorts canonically against local events. Times in the past are NOT
  /// clamped — the engine's lookahead guarantees `key.when` is in this
  /// queue's future, and a violation must surface, not be papered over.
  TimerId schedule_cross(const EventKey& key, Callback cb);

  /// Fire time of the earliest pending event, or `kNoEvent` when empty.
  /// Purges lazily-cancelled events from the top as a side effect.
  static constexpr Time kNoEvent = std::numeric_limits<Time>::max();
  Time next_event_time();

  /// Key of the event currently executing (valid only inside a callback).
  /// Taps use it to merge per-shard observation streams in canonical order.
  const EventKey& current_key() const { return current_key_; }

  /// Moves the clock forward to `t` without executing anything (the barrier
  /// scheduler's equivalent of run_until's trailing `now_ = deadline`).
  void advance_to(Time t) {
    if (now_ < t) now_ = t;
  }

 private:
  struct Event {
    EventKey key;
    std::uint64_t id;
    Callback cb;
  };
  // Comparator for a std::*_heap max-heap whose "largest" element is the
  // earliest event: a orders after b when a fires later.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return b.key < a.key;
    }
  };

  /// Pops the earliest event out of the heap by move (std::priority_queue's
  /// const top() would copy the std::function and its captures every pop —
  /// the hottest allocation site in large simulations).
  Event pop_event();
  /// Physically removes lazily-cancelled events once they dominate the heap,
  /// bounding memory held alive by cancelled timers' captures.
  void maybe_compact();

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
  std::uint32_t shard_ = 0;
  EventKey current_key_{};
  std::vector<Event> heap_;  // binary heap maintained via std::push/pop_heap
  std::unordered_set<std::uint64_t> cancelled_;
};

/// RAII helper owning a single restartable timer on an EventQueue.
///
/// TCP and HTTP components hold several of these (retransmit, delayed-ACK,
/// flush). Destroying the Timer cancels any pending callback, so a component
/// can never be called back after destruction.
class Timer {
 public:
  explicit Timer(EventQueue& queue) : queue_(&queue) {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer to fire `delay` from now, replacing any pending fire.
  void arm(Time delay, EventQueue::Callback cb) {
    cancel();
    id_ = queue_->schedule_in(delay, [this, cb = std::move(cb)] {
      id_ = TimerId{};
      cb();
    });
  }

  /// True if the timer is armed and has not fired.
  bool armed() const { return static_cast<bool>(id_); }

  void cancel() {
    if (id_) {
      queue_->cancel(id_);
      id_ = TimerId{};
    }
  }

 private:
  EventQueue* queue_;
  TimerId id_;
};

}  // namespace hsim::sim
