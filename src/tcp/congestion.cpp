#include "tcp/congestion.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace hsim::tcp {

namespace {
// "Infinite" initial ssthresh: slow start runs until the first loss event.
constexpr std::uint32_t kInitialSsthresh = 1u << 30;
}  // namespace

std::string_view to_string(CcKind kind) {
  switch (kind) {
    case CcKind::kReno: return "reno";
    case CcKind::kNewReno: return "newreno";
    case CcKind::kCubic: return "cubic";
    case CcKind::kBbrLite: return "bbr";
  }
  return "?";
}

bool parse_cc_kind(std::string_view name, CcKind* out) {
  for (const CcKind kind : kAllCcKinds) {
    if (name == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  if (name == "bbr-lite" || name == "bbrlite") {
    *out = CcKind::kBbrLite;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Base class: CA state machine + forensics; modules do window arithmetic.
// ---------------------------------------------------------------------------

CaState CongestionControl::ca_state() const {
  switch (episode_) {
    case Episode::kFastRecovery: return CaState::kFastRecovery;
    case Episode::kLoss: return CaState::kLoss;
    case Episode::kNone: break;
  }
  return cwnd_ < ssthresh_ ? CaState::kSlowStart : CaState::kAvoidance;
}

void CongestionControl::note_first_loss(LossReason reason, sim::Time now) {
  if (forensics_.first_loss_reason == LossReason::kNone) {
    forensics_.first_loss_reason = reason;
    forensics_.first_loss_time = now;
  }
}

void CongestionControl::init(const CcContext& ctx) {
  episode_ = Episode::kNone;
  cc_init(ctx);
}

bool CongestionControl::on_new_ack(const CcContext& ctx,
                                   std::size_t acked_bytes) {
  bool retransmit = false;
  if (episode_ != Episode::kNone) {
    if (ctx.snd_acked >= recovery_point_) {
      // Full ACK: the episode is over. Exit before growth so a module's
      // exit deflation (e.g. NewReno's cwnd = ssthresh) applies first.
      const bool was_recovery = episode_ == Episode::kFastRecovery;
      episode_ = Episode::kNone;
      if (was_recovery) ++forensics_.full_recoveries;
      cc_exit_recovery(ctx);
      ++forensics_.ca_entries[static_cast<std::size_t>(ca_state())];
    } else if (episode_ == Episode::kFastRecovery) {
      // Partial ACK during fast recovery: the module decides whether to
      // repair the next hole immediately (NewReno) or wait (Reno).
      retransmit = cc_partial_ack(ctx, acked_bytes);
      if (retransmit) ++forensics_.partial_ack_retransmits;
    }
  }
  cc_new_ack(ctx, acked_bytes);
  return retransmit;
}

void CongestionControl::on_duplicate_ack(const CcContext& ctx,
                                         std::uint32_t count) {
  cc_duplicate_ack(ctx, count);
}

bool CongestionControl::on_loss_detected(const CcContext& ctx) {
  if (episode_ == Episode::kFastRecovery && !cc_reenter_recovery()) {
    return false;
  }
  note_first_loss(LossReason::kDupAck, ctx.now);
  ++forensics_.enter_recovery;
  ++forensics_.ca_entries[static_cast<std::size_t>(CaState::kFastRecovery)];
  episode_ = Episode::kFastRecovery;
  recovery_point_ = ctx.snd_max;
  cc_enter_fast_recovery(ctx);
  return true;
}

void CongestionControl::on_timeout(const CcContext& ctx) {
  if (episode_ == Episode::kFastRecovery) ++forensics_.recovery_to_loss;
  note_first_loss(LossReason::kTimeout, ctx.now);
  ++forensics_.enter_loss;
  ++forensics_.ca_entries[static_cast<std::size_t>(CaState::kLoss)];
  episode_ = Episode::kLoss;
  recovery_point_ = ctx.snd_max;
  cc_timeout(ctx);
}

void CongestionControl::on_rtt_sample(const CcContext& ctx, sim::Time rtt) {
  cc_rtt_sample(ctx, rtt);
}

void CongestionControl::after_idle(const CcContext& ctx) {
  ++forensics_.after_idle_resets;
  cc_after_idle(ctx);
}

void CongestionControl::note_spurious_rto() { ++forensics_.spurious_rtos; }

void CongestionControl::cc_duplicate_ack(const CcContext&, std::uint32_t) {}
void CongestionControl::cc_exit_recovery(const CcContext&) {}
bool CongestionControl::cc_partial_ack(const CcContext&, std::size_t) {
  return false;
}
void CongestionControl::cc_rtt_sample(const CcContext&, sim::Time) {}
void CongestionControl::cc_after_idle(const CcContext&) {}

std::uint32_t CongestionControl::halved_window(const CcContext& ctx) const {
  // The one shared flight/half computation: the in-flight estimate is capped
  // by cwnd (an application-limited sender must not inflate ssthresh), and
  // the halved window is floored at two segments (RFC 5681 eq. 4).
  const std::uint32_t flight = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(ctx.bytes_in_flight, cwnd_));
  return std::max(flight / 2, 2 * ctx.mss);
}

void CongestionControl::reno_growth(const CcContext& ctx,
                                    std::size_t acked_bytes) {
  if (cwnd_ < ssthresh_) {
    // Slow start: one MSS per MSS-worth of new data acknowledged.
    cwnd_ += static_cast<std::uint32_t>(
        std::min<std::size_t>(acked_bytes, ctx.mss));
  } else {
    // Congestion avoidance: ~one MSS per RTT.
    cwnd_ += std::max<std::uint32_t>(
        1, ctx.mss * ctx.mss / std::max<std::uint32_t>(cwnd_, 1));
  }
}

// ---------------------------------------------------------------------------
// Reno: the original hard-wired behaviour, byte-exact.
// ---------------------------------------------------------------------------

namespace {

class Reno : public CongestionControl {
 public:
  CcKind kind() const override { return CcKind::kReno; }

 protected:
  void cc_init(const CcContext& ctx) override {
    cwnd_ = ctx.initial_cwnd;
    ssthresh_ = kInitialSsthresh;
  }
  void cc_new_ack(const CcContext& ctx, std::size_t acked) override {
    reno_growth(ctx, acked);
  }
  void cc_enter_fast_recovery(const CcContext& ctx) override {
    const std::uint32_t half = halved_window(ctx);
    cwnd_ = half;
    ssthresh_ = half;
  }
  void cc_timeout(const CcContext& ctx) override {
    // Multiplicative decrease, restart from one segment in slow start.
    // Order matters: ssthresh derives from the pre-collapse window.
    ssthresh_ = halved_window(ctx);
    cwnd_ = ctx.mss;
  }
};

// ---------------------------------------------------------------------------
// NewReno: Reno + partial-ACK hole repair without re-halving (RFC 6582).
// ---------------------------------------------------------------------------

class NewReno : public Reno {
 public:
  CcKind kind() const override { return CcKind::kNewReno; }

 protected:
  bool cc_reenter_recovery() const override { return false; }
  void cc_new_ack(const CcContext& ctx, std::size_t acked) override {
    // The window holds at ssthresh for the duration of fast recovery;
    // growth resumes once the full ACK arrives (cc_exit_recovery). After an
    // RTO (loss state) the normal slow-start regrowth applies.
    if (ca_state() == CaState::kFastRecovery) return;
    reno_growth(ctx, acked);
  }
  bool cc_partial_ack(const CcContext&, std::size_t) override {
    // A partial ACK means the next hole is known: repair it now instead of
    // waiting for three more duplicate ACKs — and do NOT halve again.
    return true;
  }
  void cc_exit_recovery(const CcContext&) override { cwnd_ = ssthresh_; }
  void cc_after_idle(const CcContext& ctx) override {
    // RFC 5681 §4.1 restart: the window decays to the initial window after
    // an idle period of one RTO; ssthresh keeps the path memory.
    cwnd_ = std::min(cwnd_, ctx.initial_cwnd);
  }
};

// ---------------------------------------------------------------------------
// CUBIC (RFC 8312): time-based window growth with fast convergence.
// ---------------------------------------------------------------------------

class Cubic : public CongestionControl {
 public:
  CcKind kind() const override { return CcKind::kCubic; }

 protected:
  static constexpr double kC = 0.4;      // aggressiveness (segments/sec^3)
  static constexpr double kBeta = 0.7;   // multiplicative decrease factor
  // TCP-friendly region slope: 3(1-beta)/(1+beta).
  static constexpr double kAlpha = 3.0 * (1.0 - kBeta) / (1.0 + kBeta);

  void cc_init(const CcContext& ctx) override {
    cwnd_ = ctx.initial_cwnd;
    ssthresh_ = kInitialSsthresh;
    w_max_ = 0.0;
    epoch_start_ = -1;
  }

  void cc_new_ack(const CcContext& ctx, std::size_t acked) override {
    if (ca_state() == CaState::kFastRecovery) return;  // hold during recovery
    if (cwnd_ < ssthresh_) {
      // Slow start is unchanged from Reno (no HyStart in this model).
      cwnd_ += static_cast<std::uint32_t>(
          std::min<std::size_t>(acked, ctx.mss));
      epoch_start_ = -1;
      return;
    }
    const double seg = static_cast<double>(ctx.mss);
    const double cur = static_cast<double>(cwnd_) / seg;
    if (epoch_start_ < 0) {
      // New congestion-avoidance epoch: aim the cubic at the last w_max.
      epoch_start_ = ctx.now;
      if (w_max_ < cur) {
        w_max_ = cur;
        k_ = 0.0;
      } else {
        k_ = std::cbrt((w_max_ - cur) / kC);
      }
      w_est_ = cur;
    }
    // Target the cubic one RTT ahead: W(t + RTT) = C(t - K)^3 + w_max.
    const double t = sim::to_seconds(ctx.now - epoch_start_ + ctx.srtt);
    const double d = t - k_;
    const double target = kC * d * d * d + w_max_;
    // TCP-friendly region: never slower than a Reno flow would be.
    w_est_ += kAlpha * (static_cast<double>(std::min<std::size_t>(
                           acked, ctx.mss)) / seg) / cur;
    double next = cur;
    if (target > cur) next = cur + (target - cur) / cur;  // per-ACK step
    if (w_est_ > next) next = w_est_;
    if (next > cur + 1.0) next = cur + 1.0;  // at most one segment per ACK
    if (next > cur) cwnd_ = static_cast<std::uint32_t>(next * seg);
  }

  bool cc_reenter_recovery() const override { return false; }

  void cc_enter_fast_recovery(const CcContext& ctx) override {
    shrink(ctx);
    cwnd_ = ssthresh_;
  }

  bool cc_partial_ack(const CcContext&, std::size_t) override { return true; }

  void cc_exit_recovery(const CcContext&) override { cwnd_ = ssthresh_; }

  void cc_timeout(const CcContext& ctx) override {
    shrink(ctx);
    cwnd_ = ctx.mss;
  }

  void cc_after_idle(const CcContext& ctx) override {
    cwnd_ = std::min(cwnd_, ctx.initial_cwnd);
    epoch_start_ = -1;
  }

 private:
  /// Shared multiplicative-decrease bookkeeping: remember where the loss
  /// happened (with fast convergence) and set ssthresh = beta * cwnd.
  void shrink(const CcContext& ctx) {
    const double cur = static_cast<double>(cwnd_) / ctx.mss;
    // Fast convergence: a loss below the previous w_max means a new flow is
    // taking share — release extra room by remembering a lower ceiling.
    w_max_ = cur < w_max_ ? cur * (2.0 - kBeta) / 2.0 : cur;
    ssthresh_ = std::max<std::uint32_t>(
        static_cast<std::uint32_t>(static_cast<double>(cwnd_) * kBeta),
        2 * ctx.mss);
    epoch_start_ = -1;
  }

  double w_max_ = 0.0;        // window (segments) at the last loss event
  sim::Time epoch_start_ = -1;  // start of the current avoidance epoch
  double k_ = 0.0;            // time (sec) for the cubic to reach w_max
  double w_est_ = 0.0;        // Reno-equivalent window (TCP-friendly region)
};

// ---------------------------------------------------------------------------
// BBR-lite: delivery-rate + min-RTT model with a pacing-gain cycle.
// ---------------------------------------------------------------------------

class BbrLite : public CongestionControl {
 public:
  CcKind kind() const override { return CcKind::kBbrLite; }

 protected:
  static constexpr double kStartupGain = 2.885;  // 2/ln(2)
  static constexpr int kCycleLength = 8;
  static constexpr std::uint64_t kBwWindowRounds = 10;

  void cc_init(const CcContext& ctx) override {
    cwnd_ = ctx.initial_cwnd;
    ssthresh_ = kInitialSsthresh;
    round_start_time_ = ctx.now;
  }

  void cc_new_ack(const CcContext& ctx, std::size_t acked) override {
    delivered_ += acked;
    if (delivered_ >= next_round_delivered_) advance_round(ctx);

    const double bw = max_bw_bps();
    if (bw <= 0.0 || ctx.min_rtt <= 0) {
      // No model yet (pre-first-RTT): grow like slow start.
      cwnd_ += static_cast<std::uint32_t>(
          std::min<std::size_t>(acked, ctx.mss));
      return;
    }
    double gain;
    if (!filled_pipe_) {
      gain = kStartupGain;
    } else {
      // Probe-bandwidth gain cycle, advanced once per min-RTT: one
      // probing phase (1.25), one draining phase (0.75), six cruise phases.
      if (ctx.now - cycle_start_ >= ctx.min_rtt) {
        cycle_index_ = (cycle_index_ + 1) % kCycleLength;
        cycle_start_ = ctx.now;
      }
      gain = cycle_gain(cycle_index_);
    }
    const double bdp_bytes = bw / 8.0 * sim::to_seconds(ctx.min_rtt);
    const std::uint64_t target = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(gain * bdp_bytes),
        4ull * ctx.mss);
    if (cwnd_ < target) {
      // Approach the target at slow-start pace rather than jumping, so a
      // stale bandwidth spike cannot instantly flood the path.
      cwnd_ = static_cast<std::uint32_t>(std::min<std::uint64_t>(
          target, static_cast<std::uint64_t>(cwnd_) + acked));
    } else {
      cwnd_ = static_cast<std::uint32_t>(target);
    }
    if (filled_pipe_) {
      // Report the operating point through ssthresh so timelines and the CA
      // state read "avoidance" once the pipe is filled (BBR itself has no
      // ssthresh notion).
      ssthresh_ = static_cast<std::uint32_t>(
          std::max<std::uint64_t>(target, 4ull * ctx.mss));
    }
  }

  bool cc_reenter_recovery() const override { return false; }

  void cc_enter_fast_recovery(const CcContext& ctx) override {
    // Loss is a repair problem, not a rate signal: remember the window,
    // fall back to roughly what is actually in flight while the holes fill.
    prior_cwnd_ = std::max(prior_cwnd_, cwnd_);
    cwnd_ = std::max(static_cast<std::uint32_t>(std::min<std::uint64_t>(
                         ctx.bytes_in_flight, cwnd_)),
                     4 * ctx.mss);
  }

  bool cc_partial_ack(const CcContext&, std::size_t) override { return true; }

  void cc_exit_recovery(const CcContext&) override {
    // Restore the pre-loss window: the model, not the loss, sets the rate.
    cwnd_ = std::max(cwnd_, prior_cwnd_);
    prior_cwnd_ = 0;
  }

  void cc_timeout(const CcContext& ctx) override {
    prior_cwnd_ = std::max(prior_cwnd_, cwnd_);
    cwnd_ = ctx.mss;  // conservative go-back-N restart; restored on full ACK
  }

  void cc_after_idle(const CcContext& ctx) override {
    // Rate model survives idle; just restart the gain cycle conservatively.
    cycle_index_ = 0;
    cycle_start_ = ctx.now;
  }

 private:
  static double cycle_gain(int index) {
    if (index == 0) return 1.25;
    if (index == 1) return 0.75;
    return 1.0;
  }

  void advance_round(const CcContext& ctx) {
    const sim::Time dt = ctx.now - round_start_time_;
    if (dt > 0 && delivered_ > round_start_delivered_) {
      const double bps =
          static_cast<double>(delivered_ - round_start_delivered_) * 8.0 /
          sim::to_seconds(dt);
      bw_samples_.push_back({round_, bps});
      // Expire samples outside the bandwidth window.
      std::size_t keep = 0;
      for (std::size_t i = 0; i < bw_samples_.size(); ++i) {
        if (bw_samples_[i].round + kBwWindowRounds >= round_) {
          bw_samples_[keep++] = bw_samples_[i];
        }
      }
      bw_samples_.resize(keep);
    }
    ++round_;
    round_start_delivered_ = delivered_;
    round_start_time_ = ctx.now;
    next_round_delivered_ = delivered_ + ctx.bytes_in_flight;
    // Startup exit: bandwidth stopped growing >= 25% for three rounds.
    if (!filled_pipe_) {
      const double bw = max_bw_bps();
      if (bw > full_bw_ * 1.25) {
        full_bw_ = bw;
        full_bw_rounds_ = 0;
      } else if (++full_bw_rounds_ >= 3) {
        filled_pipe_ = true;
        cycle_index_ = 0;
        cycle_start_ = ctx.now;
      }
    }
  }

  double max_bw_bps() const {
    double best = 0.0;
    for (const BwSample& s : bw_samples_) best = std::max(best, s.bps);
    return best;
  }

  struct BwSample {
    std::uint64_t round = 0;
    double bps = 0.0;
  };

  bool filled_pipe_ = false;
  double full_bw_ = 0.0;
  int full_bw_rounds_ = 0;
  std::uint64_t delivered_ = 0;  // cumulative bytes acknowledged
  std::uint64_t round_ = 0;
  std::uint64_t round_start_delivered_ = 0;
  std::uint64_t next_round_delivered_ = 0;
  sim::Time round_start_time_ = 0;
  std::vector<BwSample> bw_samples_;  // windowed-max delivery rate filter
  int cycle_index_ = 0;
  sim::Time cycle_start_ = 0;
  std::uint32_t prior_cwnd_ = 0;  // window to restore after loss repair
};

}  // namespace

std::unique_ptr<CongestionControl> CongestionControl::make(CcKind kind) {
  switch (kind) {
    case CcKind::kReno: return std::make_unique<Reno>();
    case CcKind::kNewReno: return std::make_unique<NewReno>();
    case CcKind::kCubic: return std::make_unique<Cubic>();
    case CcKind::kBbrLite: return std::make_unique<BbrLite>();
  }
  return std::make_unique<Reno>();
}

}  // namespace hsim::tcp
