#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace hsim::sim {

TimerId EventQueue::schedule_at(Time when, Callback cb) {
  if (when < now_) when = now_;
  return push(EventKey{when, now_, shard_, next_seq_++}, std::move(cb));
}

TimerId EventQueue::schedule_cross(const EventKey& key, Callback cb) {
  return push(key, std::move(cb));
}

TimerId EventQueue::push(const EventKey& key, Callback cb) {
  if (free_.empty()) {
    free_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t i = free_.back();
  free_.pop_back();
  Slot& slot = slots_[i];
  slot.cb = std::move(cb);
  slot.live = true;
  heap_.push_back(Node{key.when, key.sched, key.src, i, key.seq});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  maybe_compact();
  return TimerId{(std::uint64_t{slot.gen} << 32) | (std::uint64_t{i} + 1)};
}

bool EventQueue::cancel(TimerId id) {
  const std::uint64_t i = (id.value & 0xffffffffu) - 1;
  if (!id || i >= slots_.size()) return false;
  Slot& slot = slots_[i];
  if (!slot.live || slot.gen != id.value >> 32) return false;
  // The node stays in the heap until it surfaces or a compaction drops it;
  // the callback (and whatever it captured) goes now, destroyed off the
  // table in case a capture's destructor schedules.
  const Callback doomed = std::move(slot.cb);
  slot.live = false;
  ++dead_;
  return true;
}

void EventQueue::release(std::uint32_t slot) {
  ++slots_[slot].gen;
  free_.push_back(slot);
}

void EventQueue::maybe_compact() {
  // Heavy timer churn (delayed-ACK and RTO re-arms across thousands of
  // connections) can leave the heap mostly cancelled nodes. Rebuild once
  // they outnumber the live ones.
  if (dead_ < 1024 || dead_ * 2 < heap_.size()) return;
  std::erase_if(heap_, [this](const Node& n) {
    if (slots_[n.slot].live) return false;
    release(n.slot);
    return true;
  });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_ = 0;
}

void EventQueue::purge_top() {
  while (!heap_.empty() && !slots_[heap_.front().slot].live) {
    release(heap_.front().slot);
    --dead_;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void EventQueue::run_top() {
  const Node node = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Move the callback out before running it: it may schedule, which can
  // recycle this slot or regrow the table.
  Slot& slot = slots_[node.slot];
  Callback cb = std::move(slot.cb);
  slot.live = false;
  release(node.slot);
  now_ = node.when;
  cb();
}

Time EventQueue::next_event_time() {
  purge_top();
  return heap_.empty() ? kNoEvent : heap_.front().when;
}

bool EventQueue::step() {
  purge_top();
  if (heap_.empty()) return false;
  run_top();
  return true;
}

std::size_t EventQueue::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t EventQueue::run_until(Time deadline) {
  std::size_t n = 0;
  while (true) {
    purge_top();
    if (heap_.empty() || heap_.front().when > deadline) break;
    run_top();
    ++n;
  }
  if (now_ < deadline && !heap_.empty()) now_ = deadline;
  return n;
}

}  // namespace hsim::sim
