// Pluggable congestion control.
//
// Every cwnd/ssthresh decision that used to be inlined in tcp::Connection
// lives behind this event-hook interface, shaped like Shadow's tcp_cong.h
// and BSD's tcp_cc.h: the connection owns transmission (what to send, when
// to retransmit, how to slice the send chain) and reports events; the
// module owns the window (cwnd/ssthresh) and answers policy questions
// (enter recovery? retransmit on this partial ACK?).
//
// The base class runs a common congestion-avoidance state machine
// (slow-start / avoidance / fast-recovery / loss, the Linux CA-state shape)
// and maintains the per-connection loss-forensics counters, so every module
// gets identical bookkeeping for free; modules implement only the window
// arithmetic via the protected cc_* hooks.
//
// Four modules ship:
//   kReno     — the original hard-wired behaviour, byte-exact with it: VJ
//               slow start, AIMD avoidance, halve-on-3-dup-acks, collapse to
//               one segment on RTO. The default everywhere.
//   kNewReno  — Reno plus RFC 6582-style partial-ACK handling: while in
//               fast recovery a partial ACK retransmits the next hole
//               immediately and does NOT re-halve the window.
//   kCubic    — RFC 8312 time-based window growth: concave approach to the
//               last w_max, convex probing beyond it, beta = 0.7
//               multiplicative decrease with fast convergence.
//   kBbrLite  — a BBR-flavoured model: windowed-max delivery rate x
//               windowed-min RTT gives a BDP estimate; cwnd tracks
//               gain x BDP through a startup phase and a probe-bandwidth
//               pacing-gain cycle. Loss is survived, not obeyed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace hsim::tcp {

/// Which congestion-control module a connection runs (TcpOptions::cc).
enum class CcKind : std::uint8_t {
  kReno = 0,
  kNewReno = 1,
  kCubic = 2,
  kBbrLite = 3,
};

std::string_view to_string(CcKind kind);
/// Parses "reno" / "newreno" / "cubic" / "bbr" (the --cc flag spellings).
/// Returns false and leaves *out untouched on an unknown name.
bool parse_cc_kind(std::string_view name, CcKind* out);
/// All four kinds, for exhaustive iteration in tests and benches.
inline constexpr CcKind kAllCcKinds[] = {CcKind::kReno, CcKind::kNewReno,
                                         CcKind::kCubic, CcKind::kBbrLite};

/// Congestion-avoidance state, the Linux tcp_ca_state shape folded to the
/// four phases this stack distinguishes. Carried in the flags byte of
/// kCwndChange timeline events and counted in LossForensics.
enum class CaState : std::uint8_t {
  kSlowStart = 0,     // open, cwnd < ssthresh
  kAvoidance = 1,     // open, cwnd >= ssthresh
  kFastRecovery = 2,  // between 3-dup-ack loss detection and the full ACK
  kLoss = 3,          // between an RTO and the ACK covering the loss point
};

/// What first put the connection into a loss episode.
enum class LossReason : std::uint8_t {
  kNone = 0,
  kDupAck = 1,   // 3 duplicate ACKs (fast retransmit)
  kTimeout = 2,  // retransmission timer
};

/// Per-connection loss forensics, modelled on the bpf-tcp-measurements
/// collector structs: what started the first loss episode, how often each
/// CA state was entered, the dangerous recovery->loss transitions, and
/// retransmissions the module itself requested. Maintained by the
/// CongestionControl base class; aggregated across connections into the
/// tcp.cc.* registry counters by tcp::Connection.
struct LossForensics {
  LossReason first_loss_reason = LossReason::kNone;
  sim::Time first_loss_time = 0;  // valid iff first_loss_reason != kNone

  /// Entries into each CA state (indexed by CaState). kSlowStart counts
  /// re-entries after a loss episode, not the initial state.
  std::uint32_t ca_entries[4] = {0, 0, 0, 0};

  std::uint32_t enter_recovery = 0;    // 3-dup-ack episodes (incl. re-entries)
  std::uint32_t enter_loss = 0;        // RTO-driven episodes
  std::uint32_t recovery_to_loss = 0;  // RTO fired while in fast recovery
  std::uint32_t full_recoveries = 0;   // recovery exited by a full ACK
  std::uint32_t partial_ack_retransmits = 0;  // module-requested hole repairs
  /// RTOs whose collapse was contradicted by the very next ACK: it covered
  /// more than the post-RTO retransmission could explain, so the original
  /// flight had been delivered and the timeout was spurious. Counted, never
  /// undone (observational, keeps Reno byte-exact).
  std::uint32_t spurious_rtos = 0;
  std::uint32_t after_idle_resets = 0;  // idle-restart hook invocations
};

/// Snapshot of the sender state a hook may consult. Built by the connection
/// at every hook call; offsets are 64-bit stream positions (not wire seqs).
struct CcContext {
  sim::Time now = 0;
  std::uint32_t mss = 1460;
  std::uint32_t initial_cwnd = 2 * 1460;  // initial_cwnd_segments * mss
  std::uint64_t bytes_in_flight = 0;      // snd_next - snd_acked
  std::uint64_t snd_acked = 0;            // cumulative acked stream offset
  std::uint64_t snd_max = 0;              // highest offset ever transmitted
  sim::Time srtt = 0;                     // smoothed RTT (0 until measured)
  sim::Time min_rtt = 0;                  // min RTT observed (0 until measured)
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  static std::unique_ptr<CongestionControl> make(CcKind kind);

  virtual CcKind kind() const = 0;
  std::string_view name() const { return to_string(kind()); }

  // ---- Event hooks (called by tcp::Connection) --------------------------

  /// Connection entering SYN_SENT / SYN_RCVD: set the initial window.
  void init(const CcContext& ctx);

  /// A cumulative ACK advanced snd_acked by acked_bytes (possibly 0 when it
  /// covered only a FIN). Returns true when the module wants the first
  /// unacked segment retransmitted right now (NewReno partial-ACK repair);
  /// the connection owns the actual transmission.
  bool on_new_ack(const CcContext& ctx, std::size_t acked_bytes);

  /// A duplicate ACK (RFC 5681 definition) arrived; count includes this one.
  /// The 3-dup-ack loss detection itself stays in the connection, which
  /// calls on_loss_detected when the threshold hits.
  void on_duplicate_ack(const CcContext& ctx, std::uint32_t count);

  /// The connection's loss detector fired (3rd duplicate ACK). Returns true
  /// when the module (re-)entered fast recovery — only then does the
  /// connection fast-retransmit and count it. Reno always re-enters (and
  /// re-halves); NewReno-style modules decline while already recovering.
  bool on_loss_detected(const CcContext& ctx);

  /// The retransmission timer fired with data (or a FIN) outstanding.
  void on_timeout(const CcContext& ctx);

  /// A Karn-valid RTT measurement completed.
  void on_rtt_sample(const CcContext& ctx, sim::Time rtt);

  /// The connection was idle for at least one RTO and is about to send
  /// again (RFC 2861 restart). Reno keeps the legacy no-op behaviour.
  void after_idle(const CcContext& ctx);

  /// The connection detected that the most recent RTO was spurious (the
  /// next ACK covered data only the pre-RTO flight could have delivered).
  void note_spurious_rto();

  // ---- State the connection reads ---------------------------------------

  std::uint32_t cwnd() const { return cwnd_; }
  std::uint32_t ssthresh() const { return ssthresh_; }
  CaState ca_state() const;
  const LossForensics& forensics() const { return forensics_; }

 protected:
  // ---- Module hooks: window arithmetic only -----------------------------
  virtual void cc_init(const CcContext& ctx) = 0;
  /// Window growth for an ACK of acked_bytes. Called on every advancing ACK,
  /// including partial ACKs during recovery and ACKs during loss; modules
  /// that freeze the window while recovering check ca_state() themselves.
  virtual void cc_new_ack(const CcContext& ctx, std::size_t acked_bytes) = 0;
  virtual void cc_duplicate_ack(const CcContext& ctx, std::uint32_t count);
  /// Whether a 3-dup-ack event while already in fast recovery re-enters it
  /// (Reno: yes, re-halving; everyone else: no).
  virtual bool cc_reenter_recovery() const { return true; }
  /// Multiplicative decrease on entering fast recovery.
  virtual void cc_enter_fast_recovery(const CcContext& ctx) = 0;
  /// Full ACK ended the episode (fast recovery or loss).
  virtual void cc_exit_recovery(const CcContext& ctx);
  /// A partial ACK arrived during fast recovery. Return true to retransmit
  /// the next hole immediately (NewReno-style repair).
  virtual bool cc_partial_ack(const CcContext& ctx, std::size_t acked_bytes);
  /// Window collapse on RTO.
  virtual void cc_timeout(const CcContext& ctx) = 0;
  virtual void cc_rtt_sample(const CcContext& ctx, sim::Time rtt);
  virtual void cc_after_idle(const CcContext& ctx);

  /// The one shared flight/half computation (satellite: the RTO and 3-dup-ack
  /// paths used to re-derive this independently and could drift): half the
  /// conservatively-estimated flight, floored at two segments (RFC 5681).
  std::uint32_t halved_window(const CcContext& ctx) const;

  /// Reno/NewReno/CUBIC-slow-start shared growth: slow start adds one MSS
  /// per full MSS acked; congestion avoidance adds mss^2/cwnd per ACK.
  void reno_growth(const CcContext& ctx, std::size_t acked_bytes);

  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0;

 private:
  enum class Episode : std::uint8_t { kNone, kFastRecovery, kLoss };

  void note_first_loss(LossReason reason, sim::Time now);

  Episode episode_ = Episode::kNone;
  /// Stream offset whose cumulative ACK ends the current episode (snd_max at
  /// episode entry, the RFC 6582 "recover" variable).
  std::uint64_t recovery_point_ = 0;
  LossForensics forensics_;
};

}  // namespace hsim::tcp
