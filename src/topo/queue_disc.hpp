// Pluggable per-egress queue disciplines for topo::Router.
//
// A net::Link models the physical transmitter (serialisation + propagation);
// a QueueDisc models the *buffering policy* in front of it. The router keeps
// every queued packet inside the discipline and clocks exactly one packet at
// a time into the link (via Link::set_on_idle back-pressure), so the link's
// internal drop-tail queue never fills and the discipline alone decides what
// is buffered and what is dropped.
//
// Two disciplines are provided:
//   - DropTail: the classic FIFO with a packet budget and/or a byte budget.
//     A packet arriving when either budget is exhausted is dropped.
//   - Red: Random Early Detection (Floyd & Jacobson 1993). An EWMA of the
//     queue depth drives a probabilistic early drop between min/max
//     thresholds, a forced drop above the max threshold, and a hard
//     tail-drop at the physical budget. All randomness draws from the
//     discipline's own sim::Rng stream, so a fixed seed reproduces the
//     exact same drop pattern (asserted by topo_queue_test).
//
// Every discipline publishes per-queue registry metrics under
// `topo.queue.<label>.*`: enqueued/dropped counters, depth gauges (peaks)
// and a queue-wait histogram in microseconds.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace hsim::topo {

/// Why enqueue() refused a packet; kAccepted means it was queued.
enum class DropReason {
  kAccepted,
  kOverflow,  // packet/byte budget exhausted (tail drop)
  kEarly,     // RED probabilistic early drop
  kForced,    // RED average depth at/above the max threshold
};

struct QueueStats {
  std::uint64_t offered_packets = 0;  // every enqueue attempt
  std::uint64_t enqueued_packets = 0;
  std::uint64_t enqueued_bytes = 0;  // wire bytes (payload + header)
  std::uint64_t dequeued_packets = 0;
  std::uint64_t dequeued_bytes = 0;
  std::uint64_t dropped_overflow = 0;
  std::uint64_t dropped_early = 0;
  std::uint64_t dropped_forced = 0;
  /// Packets discarded in-queue by flush_all() (router crash); these were
  /// *enqueued* first, so conservation reads
  /// enqueued == dequeued + dropped_flushed + depth.
  std::uint64_t dropped_flushed = 0;
  std::size_t peak_depth_packets = 0;
  std::size_t peak_depth_bytes = 0;

  /// Admission drops (packets refused at enqueue). Flushed packets are not
  /// included: they were accepted and later destroyed.
  std::uint64_t dropped() const {
    return dropped_overflow + dropped_early + dropped_forced;
  }
};

/// FIFO queue discipline base: owns the queue, the stats and the registry
/// metrics; subclasses only decide admission.
class QueueDisc {
 public:
  explicit QueueDisc(std::string label);
  virtual ~QueueDisc() = default;
  QueueDisc(const QueueDisc&) = delete;
  QueueDisc& operator=(const QueueDisc&) = delete;

  /// Offers a packet at time `now`; returns kAccepted or the drop reason.
  DropReason enqueue(net::Packet packet, sim::Time now);

  /// Pops the head packet (precondition: !empty()). `now` stamps the
  /// queue-wait histogram.
  net::Packet dequeue(sim::Time now);

  /// Destroys every queued packet (a crashing router loses its buffers),
  /// counting each into dropped_flushed. Returns the number flushed.
  std::size_t flush_all();

  bool empty() const { return fifo_.empty(); }
  std::size_t depth_packets() const { return fifo_.size(); }
  std::size_t depth_bytes() const { return depth_bytes_; }

  const QueueStats& stats() const { return stats_; }
  const std::string& label() const { return label_; }
  virtual std::string_view kind() const = 0;

 protected:
  /// Admission decision for a packet of `wire_bytes`, taken before it is
  /// queued (the current depth does not yet include it).
  virtual DropReason admit(std::size_t wire_bytes) = 0;

 private:
  struct Entry {
    net::Packet packet;
    sim::Time enqueued_at;
  };

  std::string label_;
  std::deque<Entry> fifo_;
  std::size_t depth_bytes_ = 0;
  QueueStats stats_;

  struct Metrics {
    obs::CounterHandle enqueued, dropped;
    obs::GaugeHandle depth_packets, depth_bytes;
    obs::HistogramHandle wait_us;
    static Metrics bind(const std::string& label);
  };
  Metrics metrics_;
};

struct DropTailConfig {
  /// Maximum queued packets; 0 = unlimited.
  std::size_t limit_packets = 128;
  /// Maximum queued wire bytes; 0 = unlimited. Both budgets are enforced:
  /// a packet is dropped if it would exceed either.
  std::size_t limit_bytes = 0;
};

class DropTail : public QueueDisc {
 public:
  DropTail(std::string label, DropTailConfig config);

  std::string_view kind() const override { return "droptail"; }

 protected:
  DropReason admit(std::size_t wire_bytes) override;

 private:
  DropTailConfig config_;
};

struct RedConfig {
  /// EWMA thresholds, in packets.
  double min_threshold = 5.0;
  double max_threshold = 15.0;
  /// Drop probability as the average reaches max_threshold (max_p).
  double max_drop_probability = 0.10;
  /// EWMA weight w_q: avg = (1-w)·avg + w·depth, sampled per arrival.
  double weight = 0.002;
  /// Hard physical packet budget (tail drop beyond), as in DropTailConfig.
  std::size_t limit_packets = 128;
};

class Red : public QueueDisc {
 public:
  Red(std::string label, RedConfig config, sim::Rng rng);

  std::string_view kind() const override { return "red"; }

 protected:
  DropReason admit(std::size_t wire_bytes) override;

 private:
  RedConfig config_;
  sim::Rng rng_;
  double avg_ = 0.0;
  /// Packets accepted since the last early drop (-1: below min threshold),
  /// driving the inter-drop spreading term p_a = p_b / (1 - count·p_b).
  int count_ = -1;
};

/// Discipline selector for topology/workload configuration structs.
enum class QueueDiscKind { kDropTail, kRed };

struct QueueConfig {
  QueueDiscKind kind = QueueDiscKind::kDropTail;
  DropTailConfig drop_tail;
  RedConfig red;
};

/// Builds the configured discipline. `rng` seeds RED's drop stream (DropTail
/// consumes no randomness; the stream is discarded for it).
std::unique_ptr<QueueDisc> make_queue_disc(const QueueConfig& config,
                                           std::string label, sim::Rng rng);

}  // namespace hsim::topo
