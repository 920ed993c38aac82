// Point-to-point link with bandwidth, propagation delay and a drop-tail queue.
//
// A Link is unidirectional. It models a serialising transmitter: packets are
// clocked out at the configured bandwidth one at a time, then experience the
// propagation delay before being delivered to the sink. If more packets are
// enqueued than the transmit queue can hold, excess packets are dropped
// (drop-tail), which is what lets TCP's loss recovery paths be exercised.
//
// Beyond the physical model the link is also the simulator's fault-injection
// point. All faults draw from the link's own deterministic Rng stream, so a
// fixed seed reproduces the exact same fault sequence:
//   - uniform Bernoulli drop (`random_drop_probability`);
//   - bursty loss via a two-state Gilbert-Elliott chain (`gilbert_elliott`);
//   - packet duplication (`duplicate_probability`);
//   - bounded reordering (`reorder_probability` + `reorder_extra_delay`);
//   - payload corruption, modelled as a checksum failure: the packet crosses
//     the wire (consuming bandwidth) but is discarded at the receiver;
//   - scheduled outage windows (`outages`): while the link is down, packets
//     reaching the transmitter are lost.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "netem/profile.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace hsim::net {

/// Receives packets at the far end of a link.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(Packet packet) = 0;
};

/// Two-state Markov (Gilbert-Elliott) loss model. The chain advances one step
/// per packet offered to the link; each state drops with its own probability.
/// Mean burst length (packets spent in the bad state per excursion) is
/// 1 / p_bad_to_good; the stationary bad-state probability is
/// p_good_to_bad / (p_good_to_bad + p_bad_to_good).
struct GilbertElliottConfig {
  bool enabled = false;
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 1.0;
  double loss_good = 0.0;
  double loss_bad = 1.0;

  double stationary_bad() const {
    const double denom = p_good_to_bad + p_bad_to_good;
    return denom > 0.0 ? p_good_to_bad / denom : 0.0;
  }
  /// Long-run expected packet loss rate of the chain.
  double expected_loss() const {
    const double pb = stationary_bad();
    return pb * loss_bad + (1.0 - pb) * loss_good;
  }
};

/// A scheduled interval during which the link is down: packets reaching the
/// transmitter in [down_at, up_at) are lost.
struct OutageWindow {
  sim::Time down_at = 0;
  sim::Time up_at = 0;
};

/// Builds a repeating down/up pattern ("link flaps"): `count` outages, the
/// first starting at `first_down`, each `down_for` long and separated by
/// `up_for` of healthy link.
std::vector<OutageWindow> make_flaps(sim::Time first_down, sim::Time down_for,
                                     sim::Time up_for, unsigned count);

/// Sorts `windows` by start time and validates the schedule: every window
/// must be non-empty (down_at < up_at) and no two windows may overlap.
/// Throws std::invalid_argument naming the offending window(s) otherwise.
/// Link's constructor applies this to LinkConfig::outages, so a malformed
/// outage schedule fails loudly at wiring time instead of silently double-
/// counting drops mid-run.
void normalize_outages(std::vector<OutageWindow>& windows);

struct LinkConfig {
  /// Bits per second; 0 means infinite (no serialisation delay).
  std::int64_t bandwidth_bps = 0;
  /// One-way propagation delay.
  sim::Time propagation_delay = 0;
  /// Maximum packets queued awaiting transmission (drop-tail beyond this).
  std::size_t queue_limit_packets = 128;
  /// Uniform multiplicative jitter applied to the propagation delay of each
  /// packet, e.g. 0.02 → each packet sees delay * U[0.98, 1.02]. Delivery
  /// order is preserved regardless of jitter.
  double delay_jitter = 0.0;
  /// Probability of randomly dropping a packet (fault injection for tests).
  double random_drop_probability = 0.0;

  // ---- Fault injection ----------------------------------------------------
  /// Bursty (correlated) loss; applied in addition to the uniform drop.
  GilbertElliottConfig gilbert_elliott;
  /// Probability a transmitted packet is delivered twice.
  double duplicate_probability = 0.0;
  /// Probability a packet is pulled out of the in-order delivery sequence and
  /// delivered late. Requires reorder_extra_delay > 0 to have any effect.
  double reorder_probability = 0.0;
  /// Extra delay a reordered packet experiences past its nominal delivery
  /// time. This bounds how far a packet can fall behind its successors.
  sim::Time reorder_extra_delay = 0;
  /// Probability a packet is corrupted in flight: it consumes wire time but
  /// the receiver discards it (failed checksum), so it is never delivered.
  double corrupt_probability = 0.0;
  /// Scheduled link outages (see OutageWindow). Sorted and validated at link
  /// construction by normalize_outages(): overlapping or empty windows are
  /// rejected with std::invalid_argument.
  std::vector<OutageWindow> outages;
  /// Optional identity for per-link registry metrics. When non-empty, the
  /// link publishes `net.link.<label>.*` counters (sent/drop partition by
  /// cause, duplication, reordering) alongside the aggregate `net.link.*`
  /// family, so soak oracles and trace tooling can attribute loss to an
  /// individual link. Empty (the default) keeps the registry untouched.
  std::string label;

  /// Optional time-varying behaviour (netem subsystem): a bandwidth/latency
  /// timeline replacing the static bandwidth_bps, plus the cellular radio
  /// state machine. Null (the default) keeps the legacy static pipe; a
  /// constant single-segment profile with the radio disabled is byte-exact
  /// with null. All fault machinery above (Gilbert-Elliott, outages,
  /// duplication, reordering, corruption, jitter) composes unchanged — the
  /// dynamics only reshape serialisation time and add per-segment latency.
  /// Shared: many per-client links typically point at one dynamics object.
  std::shared_ptr<const netem::LinkDynamics> dynamics;
};

/// Lower bound on (delivery time − transmit-hook instant) for a link built
/// from `cfg`: the propagation delay shrunk by the worst-case jitter draw,
/// plus — when dynamics are attached — the minimum extra latency over the
/// profile timeline. This is the sharded engine's lookahead contract: a
/// profile may only ADD delay (per-segment extra latency is validated >= 0,
/// serialisation and radio promotion only push delivery later), so the bound
/// stays valid no matter where in the timeline a packet lands. Usable before
/// any Link exists; Link::min_remote_latency() delegates here.
sim::Time config_min_latency(const LinkConfig& cfg);

struct LinkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;  // wire bytes (payload + 40 B header each)
  std::uint64_t packets_dropped_queue = 0;
  std::uint64_t packets_dropped_random = 0;
  std::uint64_t packets_dropped_burst = 0;   // Gilbert-Elliott losses
  std::uint64_t packets_dropped_outage = 0;  // lost to a down link
  std::uint64_t packets_corrupted = 0;  // crossed the wire, dropped at receiver
  std::uint64_t packets_duplicated = 0;
  std::uint64_t packets_reordered = 0;
  /// Radio promotions charged (netem dynamics with the radio machine only):
  /// transmissions that began after the inactivity timeout and paid the
  /// promotion delay before their first bit.
  std::uint64_t radio_wakeups = 0;

  /// Packets that never reached the far end, for any reason.
  std::uint64_t packets_dropped() const {
    return packets_dropped_queue + packets_dropped_random +
           packets_dropped_burst + packets_dropped_outage + packets_corrupted;
  }
};

class Link {
 public:
  /// An optional transformation of payload byte counts, used by the modem
  /// model: given the payload size about to be serialised, returns the number
  /// of bytes that actually cross the physical medium (e.g. after V.42bis
  /// dictionary compression). Header bytes are never compressed.
  using PayloadSizer = std::function<std::size_t(const Packet&)>;

  Link(sim::EventQueue& queue, LinkConfig config, sim::Rng rng);

  void set_sink(PacketSink* sink) { sink_ = sink; }

  /// Optional hook observing every packet accepted for transmission.
  using TapFn = std::function<void(const Packet&)>;
  void set_tap(TapFn tap) { tap_ = std::move(tap); }

  void set_payload_sizer(PayloadSizer sizer) { sizer_ = std::move(sizer); }

  /// Enqueues a packet for transmission. May drop (queue overflow / random /
  /// burst loss).
  void transmit(Packet packet);

  /// True while the transmitter is clocking a packet onto the wire.
  bool transmitting() const { return transmitting_; }

  /// Optional hook fired whenever the transmitter goes idle (its internal
  /// queue drained). A topo::Router uses this as back-pressure: it keeps
  /// packets in its own queue discipline and feeds the link exactly one
  /// packet at a time, so the link's internal drop-tail queue never fills
  /// and all queueing policy lives in the discipline. The callback may call
  /// transmit() reentrantly.
  using IdleFn = std::function<void()>;
  void set_on_idle(IdleFn fn) { on_idle_ = std::move(fn); }

  /// Cross-shard delivery hook (sharded engine only). When set, the link's
  /// delivery events are not scheduled on its own queue; instead the hook
  /// receives the fully-computed arrival time (serialisation + jittered
  /// propagation + in-order clamp, fault draws already taken) and the packet,
  /// and is expected to post an event on the destination shard that hands
  /// the packet to this link's sink (or routes it by packet.dst). Everything
  /// else — queueing, drops, stats, rng draw order — stays on the source
  /// shard, so a remote link consumes its rng stream identically to a local
  /// one.
  using RemoteDeliver = std::function<void(sim::Time when, Packet packet)>;
  void set_remote_deliver(RemoteDeliver fn) { remote_ = std::move(fn); }

  /// Lower bound on (delivery time - the instant the hook is called) for any
  /// packet. The sharded engine's lookahead is the minimum of this over
  /// every cross-shard link; see config_min_latency() for the bound and for
  /// why netem dynamics cannot invalidate it.
  sim::Time min_remote_latency() const { return config_min_latency(config_); }

  PacketSink* sink() const { return sink_; }

  /// True if an outage window covers `at`.
  bool is_down(sim::Time at) const;

  /// Packets accepted but not yet clocked onto the wire. Conservation
  /// oracles need this: dequeues from an upstream discipline equal
  /// packets_sent + drops + this in-transmitter backlog at any instant.
  std::size_t queued_packets() const { return tx_queue_.size(); }

  const LinkStats& stats() const { return stats_; }

 private:
  void start_next_transmission();
  sim::Time serialisation_time(std::size_t wire_bytes) const;
  /// Profile-driven transmitter-busy time (radio promotion + time-indexed
  /// serialisation); also reports the current segment's extra latency and
  /// refreshes the netem gauges. Only called when config_.dynamics is set.
  sim::Time dynamic_tx_time(std::size_t wire_bytes, sim::Time* extra_latency);
  bool loss_model_drops();

  sim::EventQueue& queue_;
  LinkConfig config_;
  sim::Rng rng_;
  PacketSink* sink_ = nullptr;
  TapFn tap_;
  IdleFn on_idle_;
  RemoteDeliver remote_;
  PayloadSizer sizer_;
  std::deque<Packet> tx_queue_;
  bool transmitting_ = false;
  bool ge_bad_state_ = false;  // Gilbert-Elliott chain state
  /// Radio machine (netem dynamics only): the instant the radio demotes back
  /// to IDLE if nothing else transmits. A transmission starting at or past
  /// it is the "first packet after idle" and is charged the promotion delay;
  /// packets queued behind it ride the same promotion. Starts at 0 = IDLE.
  sim::Time radio_active_until_ = 0;
  /// Wire bytes accepted but not yet clocked out; feeds the standing-queue
  /// delay gauge (bufferbloat observability).
  std::size_t queued_wire_bytes_ = 0;
  /// Earliest time the next packet may be *delivered*, ensuring in-order
  /// delivery even with delay jitter. Reordered packets are exempt.
  sim::Time last_delivery_time_ = 0;
  LinkStats stats_;

  /// Aggregate net.link.* registry metrics, summed over every link in the
  /// simulation (handles are null when no registry is installed).
  struct Metrics {
    obs::CounterHandle packets_sent, wire_bytes, dropped_queue, dropped_faults,
        duplicated, reordered;
    static Metrics bind();
  };
  Metrics metrics_ = Metrics::bind();

  /// Per-link net.link.<label>.* metrics, bound only when config_.label is
  /// set. Unlike the aggregate family this keeps the drop partition by
  /// cause, so a soak oracle can tell an outage loss from a burst loss on
  /// one specific link.
  struct LabelMetrics {
    obs::CounterHandle packets_sent, dropped_queue, dropped_random,
        dropped_burst, dropped_outage, corrupted, duplicated, reordered;
    static LabelMetrics bind(const std::string& label);
  };
  LabelMetrics label_metrics_;

  /// netem.* observability, bound only when the link carries non-trivial
  /// dynamics (a time-varying profile or the radio machine) — a flat
  /// identity profile leaves the registry exactly as the legacy link does.
  /// Counters exist as an aggregate family (`netem.radio_wakeups`,
  /// `netem.tx_under_1mbit_ns`) plus a per-link `netem.<label>.*` family
  /// when the link is labelled; the gauges (current bandwidth, radio state,
  /// standing queue delay) are per-link only.
  struct NetemMetrics {
    obs::CounterHandle radio_wakeups, tx_under_1mbit_ns;
    obs::CounterHandle label_radio_wakeups, label_tx_under_1mbit_ns;
    obs::GaugeHandle bandwidth_bps, radio_state, standing_queue_ns;
    static NetemMetrics bind(const std::string& label);
  };
  NetemMetrics netem_metrics_;
};

}  // namespace hsim::net
