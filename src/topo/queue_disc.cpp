#include "topo/queue_disc.hpp"

#include <algorithm>
#include <utility>

namespace hsim::topo {

QueueDisc::Metrics QueueDisc::Metrics::bind(const std::string& label) {
  Metrics m;
  if (obs::registry() == nullptr) return m;
  const std::string prefix = "topo.queue." + label + ".";
  m.enqueued = obs::counter_handle(prefix + "enqueued");
  m.dropped = obs::counter_handle(prefix + "dropped");
  m.depth_packets = obs::gauge_handle(prefix + "depth_packets");
  m.depth_bytes = obs::gauge_handle(prefix + "depth_bytes");
  m.wait_us = obs::histogram_handle(prefix + "wait_us");
  return m;
}

QueueDisc::QueueDisc(std::string label)
    : label_(std::move(label)), metrics_(Metrics::bind(label_)) {}

DropReason QueueDisc::enqueue(net::Packet packet, sim::Time now) {
  ++stats_.offered_packets;
  const std::size_t wire = packet.wire_size();
  const DropReason reason = admit(wire);
  if (reason != DropReason::kAccepted) {
    switch (reason) {
      case DropReason::kOverflow: ++stats_.dropped_overflow; break;
      case DropReason::kEarly: ++stats_.dropped_early; break;
      case DropReason::kForced: ++stats_.dropped_forced; break;
      case DropReason::kAccepted: break;
    }
    metrics_.dropped.inc();
    return reason;
  }
  fifo_.push_back({std::move(packet), now});
  depth_bytes_ += wire;
  ++stats_.enqueued_packets;
  stats_.enqueued_bytes += wire;
  stats_.peak_depth_packets =
      std::max(stats_.peak_depth_packets, fifo_.size());
  stats_.peak_depth_bytes = std::max(stats_.peak_depth_bytes, depth_bytes_);
  metrics_.enqueued.inc();
  metrics_.depth_packets.set(static_cast<std::int64_t>(fifo_.size()));
  metrics_.depth_bytes.set(static_cast<std::int64_t>(depth_bytes_));
  return DropReason::kAccepted;
}

net::Packet QueueDisc::dequeue(sim::Time now) {
  Entry entry = std::move(fifo_.front());
  fifo_.pop_front();
  const std::size_t wire = entry.packet.wire_size();
  depth_bytes_ -= wire;
  ++stats_.dequeued_packets;
  stats_.dequeued_bytes += wire;
  metrics_.depth_packets.set(static_cast<std::int64_t>(fifo_.size()));
  metrics_.depth_bytes.set(static_cast<std::int64_t>(depth_bytes_));
  metrics_.wait_us.observe(
      static_cast<std::uint64_t>((now - entry.enqueued_at) / 1000));
  return std::move(entry.packet);
}

std::size_t QueueDisc::flush_all() {
  const std::size_t flushed = fifo_.size();
  fifo_.clear();
  depth_bytes_ = 0;
  stats_.dropped_flushed += flushed;
  metrics_.dropped.inc(flushed);
  metrics_.depth_packets.set(0);
  metrics_.depth_bytes.set(0);
  return flushed;
}

// ---------------------------------------------------------------------------
// DropTail
// ---------------------------------------------------------------------------

DropTail::DropTail(std::string label, DropTailConfig config)
    : QueueDisc(std::move(label)), config_(config) {}

DropReason DropTail::admit(std::size_t wire_bytes) {
  if (config_.limit_packets != 0 && depth_packets() >= config_.limit_packets) {
    return DropReason::kOverflow;
  }
  if (config_.limit_bytes != 0 &&
      depth_bytes() + wire_bytes > config_.limit_bytes) {
    return DropReason::kOverflow;
  }
  return DropReason::kAccepted;
}

// ---------------------------------------------------------------------------
// RED
// ---------------------------------------------------------------------------

Red::Red(std::string label, RedConfig config, sim::Rng rng)
    : QueueDisc(std::move(label)), config_(config), rng_(rng) {}

DropReason Red::admit(std::size_t /*wire_bytes*/) {
  // Sample the EWMA on every arrival (the classic per-arrival update; no
  // idle-time correction, which keeps the chain a pure function of the
  // arrival sequence and the seed).
  avg_ = (1.0 - config_.weight) * avg_ +
         config_.weight * static_cast<double>(depth_packets());

  // Physical budget is always enforced, whatever the average says.
  if (config_.limit_packets != 0 && depth_packets() >= config_.limit_packets) {
    return DropReason::kOverflow;
  }

  if (avg_ < config_.min_threshold) {
    count_ = -1;
    return DropReason::kAccepted;
  }
  if (avg_ >= config_.max_threshold) {
    count_ = 0;
    return DropReason::kForced;
  }
  ++count_;
  const double span = config_.max_threshold - config_.min_threshold;
  const double p_b = config_.max_drop_probability *
                     (avg_ - config_.min_threshold) / std::max(span, 1e-9);
  // Spread drops evenly over the inter-drop interval (Floyd & Jacobson §4).
  const double denom = 1.0 - static_cast<double>(count_) * p_b;
  const double p_a = denom <= 0.0 ? 1.0 : std::min(1.0, p_b / denom);
  if (rng_.chance(p_a)) {
    count_ = 0;
    return DropReason::kEarly;
  }
  return DropReason::kAccepted;
}

std::unique_ptr<QueueDisc> make_queue_disc(const QueueConfig& config,
                                           std::string label, sim::Rng rng) {
  switch (config.kind) {
    case QueueDiscKind::kRed:
      return std::make_unique<Red>(std::move(label), config.red, rng);
    case QueueDiscKind::kDropTail:
      break;
  }
  return std::make_unique<DropTail>(std::move(label), config.drop_tail);
}

}  // namespace hsim::topo
