#include "obs/timeline.hpp"

namespace hsim::obs {

ConnTimeline::ConnTimeline(std::string label, std::size_t capacity)
    : label_(std::move(label)), capacity_(capacity == 0 ? 1 : capacity) {
  ring_.resize(capacity_);
}

void ConnTimeline::record(sim::Time time, TlKind kind, std::uint8_t flags,
                          std::uint64_t a, std::uint64_t b) {
  ring_[head_] = TlEvent{time, kind, flags, a, b};
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
}

std::vector<TlEvent> ConnTimeline::events() const {
  std::vector<TlEvent> out;
  out.reserve(size_);
  const std::size_t start = (head_ + capacity_ - size_) % capacity_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

}  // namespace hsim::obs
