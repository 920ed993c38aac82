#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace hsim::sim {

TimerId EventQueue::schedule_at(Time when, Callback cb) {
  if (when < now_) when = now_;
  const std::uint64_t id = next_id_++;
  heap_.push_back(Event{EventKey{when, now_, shard_, next_seq_++}, id,
                        std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  maybe_compact();
  return TimerId{id};
}

TimerId EventQueue::schedule_cross(const EventKey& key, Callback cb) {
  const std::uint64_t id = next_id_++;
  heap_.push_back(Event{key, id, std::move(cb)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  maybe_compact();
  return TimerId{id};
}

bool EventQueue::cancel(TimerId id) {
  if (!id) return false;
  // Lazy cancellation: the event stays in the heap but is skipped when popped.
  // An id is only accepted if it is plausibly pending (ids are never reused).
  if (id.value >= next_id_) return false;
  return cancelled_.insert(id.value).second;
}

std::size_t EventQueue::pending() const {
  return static_cast<std::size_t>(
      std::count_if(heap_.begin(), heap_.end(), [this](const Event& ev) {
        return cancelled_.count(ev.id) == 0;
      }));
}

EventQueue::Event EventQueue::pop_event() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

void EventQueue::maybe_compact() {
  // Heavy timer churn (delayed-ACK and RTO re-arms across thousands of
  // connections) can leave the heap mostly cancelled events, each keeping its
  // callback captures alive. Rebuild once they outnumber the live ones.
  if (cancelled_.size() < 1024 || cancelled_.size() * 2 < heap_.size()) return;
  std::erase_if(heap_, [this](const Event& ev) {
    return cancelled_.count(ev.id) != 0;
  });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  // Ids cancelled after their event already ran would otherwise linger
  // forever; everything surviving in the heap is live, so start clean.
  cancelled_.clear();
}

Time EventQueue::next_event_time() {
  while (!heap_.empty()) {
    const Event& top = heap_.front();
    if (cancelled_.count(top.id) != 0) {
      cancelled_.erase(top.id);
      pop_event();
      continue;
    }
    return top.key.when;
  }
  return kNoEvent;
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    Event ev = pop_event();
    if (!cancelled_.empty()) {
      if (auto it = cancelled_.find(ev.id); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
    }
    now_ = ev.key.when;
    current_key_ = ev.key;
    ev.cb();
    return true;
  }
  return false;
}

std::size_t EventQueue::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t EventQueue::run_until(Time deadline) {
  std::size_t n = 0;
  while (!heap_.empty()) {
    const Event& top = heap_.front();
    if (cancelled_.count(top.id) != 0) {
      cancelled_.erase(top.id);
      pop_event();
      continue;
    }
    if (top.key.when > deadline) break;
    step();
    ++n;
  }
  if (now_ < deadline && !heap_.empty()) now_ = deadline;
  return n;
}

}  // namespace hsim::sim
