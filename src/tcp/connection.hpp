// A single TCP connection: RFC 793 state machine with Van Jacobson congestion
// control, delayed ACKs, Nagle, fast retransmit and graceful half-close.
//
// Applications use the socket-like surface (send / read_all / shutdown_send /
// close_naive / abort plus callbacks); the owning tcp::Host feeds arriving
// segments in via `segment_arrived` and provides the transmit path.
//
// Internally, application data positions are tracked as 64-bit stream offsets
// and converted to 32-bit wire sequence numbers at the segment boundary, so
// the implementation is immune to wraparound bugs while still exchanging
// genuine modular sequence numbers on the wire (tested explicitly with
// initial sequence numbers near 2^32).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "buf/bytes.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "sim/event_queue.hpp"
#include "tcp/congestion.hpp"
#include "tcp/options.hpp"

namespace hsim::tcp {

class Host;

using Seq = std::uint32_t;  // 32-bit wire sequence number

enum class State {
  kClosed,
  kListen,  // unused by Connection (listening lives in Host) but kept for
            // completeness of the classic diagram
  kSynSent,
  kSynRcvd,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kClosing,
  kLastAck,
  kTimeWait,
};

/// Terminal failure cause reported through on_failed.
enum class ConnError {
  kNone,
  kConnectTimeout,     // SYN (or SYN-ACK) retries exhausted
  kRetransmitTimeout,  // established, but retransmissions never got through
};

std::string_view to_string(ConnError e);

struct ConnectionStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t bytes_sent = 0;      // payload only
  std::uint64_t bytes_received = 0;  // payload only
  std::uint64_t retransmits = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t delayed_acks_fired = 0;  // pure ACKs sent by the 200 ms timer
  std::uint64_t nagle_delays = 0;  // times Nagle withheld a small segment
};

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  using Callback = std::function<void()>;

  /// Identifies this connection within its host.
  struct Key {
    net::IpAddr peer_addr = 0;
    net::Port local_port = 0;
    net::Port peer_port = 0;
    auto operator<=>(const Key&) const = default;
  };

  Connection(Host& host, Key key, TcpOptions options);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // ---- Application interface -------------------------------------------

  /// Buffers application data for transmission. Returns the number of bytes
  /// accepted (may be less than data.size() if the send buffer is full; the
  /// on_send_space callback fires when room becomes available again).
  /// The span/string overloads copy into the send chain; the Bytes/Chain
  /// overloads enqueue shared slices without touching the payload bytes.
  std::size_t send(std::span<const std::uint8_t> data);
  std::size_t send(std::string_view text);
  std::size_t send(buf::Bytes data);
  /// Enqueues up to `limit` bytes from the front of `data` (zero-copy).
  std::size_t send(const buf::Chain& data, std::size_t limit = buf::npos);

  /// Drains and returns all bytes currently readable as shared slices of the
  /// arrived segments — no copy.
  buf::Chain read_all();
  std::size_t available() const { return recv_ready_.size(); }

  /// Free space in the send buffer.
  std::size_t send_space() const;

  /// Graceful close of the sending direction only: a FIN follows all buffered
  /// data; the receiving direction stays open (correct HTTP/1.1 behaviour —
  /// "servers must close each half of the connection independently").
  void shutdown_send();

  /// The naive close the paper warns about: closes both directions at once.
  /// Any data that arrives afterwards is answered with RST, which on the peer
  /// destroys buffered-but-unread responses.
  void close_naive();

  /// Aborts with RST immediately.
  void abort();

  State state() const { return state_; }
  const Key& key() const { return key_; }
  const ConnectionStats& stats() const { return stats_; }
  std::uint32_t cwnd() const { return cwnd_; }
  std::uint32_t ssthresh() const { return ssthresh_; }

  /// The congestion-control module driving this connection's window.
  const CongestionControl& congestion() const { return *cc_; }
  CaState ca_state() const { return cc_->ca_state(); }
  const LossForensics& loss_forensics() const { return cc_->forensics(); }

  /// True once the peer's FIN has been received and delivered in order.
  bool peer_closed() const { return peer_fin_delivered_; }
  /// True if the connection was torn down by an incoming RST.
  bool was_reset() const { return was_reset_; }
  /// Terminal failure cause, or kNone if the connection did not fail.
  ConnError error() const { return error_; }

  // Callbacks. All optional; fired from within event processing.
  void set_on_connected(Callback cb) { on_connected_ = std::move(cb); }
  void set_on_data(Callback cb) { on_data_ = std::move(cb); }
  void set_on_peer_fin(Callback cb) { on_peer_fin_ = std::move(cb); }
  void set_on_closed(Callback cb) { on_closed_ = std::move(cb); }
  void set_on_reset(Callback cb) { on_reset_ = std::move(cb); }
  void set_on_send_space(Callback cb) { on_send_space_ = std::move(cb); }
  /// Terminal failure (connect timeout / retransmission give-up). If unset,
  /// on_reset fires instead — a failed connection loses data like a reset
  /// does, so reset handling is the correct fallback.
  void set_on_failed(Callback cb) { on_failed_ = std::move(cb); }

  // ---- Host interface ----------------------------------------------------

  /// Starts an active open (client side): transmits SYN.
  void start_connect();
  /// Starts a passive open (server side) in response to a received SYN.
  void start_accept(const net::Packet& syn);
  /// Processes one arriving segment.
  void segment_arrived(const net::Packet& packet);

 private:
  using Offset = std::uint64_t;  // absolute position in the byte stream

  // Segment construction / transmission.
  void send_segment(std::uint8_t flags, Seq seq, buf::Bytes payload,
                    bool is_retransmit);
  void send_pure_ack();
  void send_rst(Seq seq, bool failure_path = false);
  std::uint32_t advertised_window() const;

  // Observability: state transitions and congestion-window updates are
  // funnelled through these so the timeline and the tcp.* metrics see every
  // change exactly once.
  void set_state(State s);
  void set_cwnd(std::uint32_t cwnd, std::uint32_t ssthresh);
  void tl(obs::TlKind kind, std::uint8_t flags = 0, std::uint64_t a = 0,
          std::uint64_t b = 0);

  // Output machinery. Application sends are flushed via a zero-delay event so
  // that several writes (and a shutdown) issued in the same instant coalesce
  // into the fewest possible segments, as a buffered socket layer would.
  void schedule_output();
  void try_send();
  bool nagle_blocks(std::size_t segment_len, bool carries_fin) const;
  void maybe_send_fin();

  // Input machinery.
  void handle_ack(const net::Packet& packet);
  void accept_payload(const net::Packet& packet);
  void deliver_in_order();
  void schedule_ack(bool force_now);

  // Timers and congestion control. The window arithmetic itself lives in the
  // cc_ module (tcp/congestion.hpp); the connection reports events via the
  // hook interface and mirrors the module's cwnd/ssthresh through sync_cwnd.
  void arm_rto();
  void on_rto_fire();
  /// Returns true when the CC module asked for an immediate retransmission of
  /// the first unacked segment (NewReno-style partial-ACK hole repair).
  bool on_new_data_acked(Offset newly_acked_end, std::size_t acked_bytes);
  /// Builds the sender-state snapshot passed to every CC hook.
  CcContext cc_ctx() const;
  /// Mirrors cc_->cwnd()/ssthresh() into cwnd_/ssthresh_ via set_cwnd.
  /// `force` replicates a legacy unconditional set_cwnd call site (the
  /// histogram observes on every call there, even when nothing changed);
  /// non-forced sites only record when the module actually moved the window.
  void sync_cwnd(bool force);
  /// Retransmits the earliest unacked segment (the fast-retransmit slice) and
  /// re-arms the RTO. No-op when nothing is outstanding.
  void retransmit_front_segment();
  /// Adds this connection's loss forensics into the tcp.cc.* aggregate
  /// registry counters (once, at teardown).
  void flush_forensics();
  void enter_time_wait();
  void become_closed(bool notify_reset);
  void become_failed(ConnError error);

  Offset bytes_in_flight() const { return snd_next_ - snd_acked_; }
  Seq wire_seq(Offset data_offset) const;

  Host& host_;
  Key key_;
  TcpOptions options_;
  State state_ = State::kClosed;
  ConnectionStats stats_;

  /// Aggregate tcp.* registry metrics (all-null handles when disabled).
  struct Metrics {
    obs::CounterHandle segments_sent, segments_received, bytes_sent,
        bytes_received, retransmits, fast_retransmits, rto_fires, delayed_acks,
        nagle_holds, rst_sent, rst_received, time_wait_entered, opened;
    // Loss forensics (tcp.cc.*), flushed once per connection at teardown.
    obs::CounterHandle cc_enter_recovery, cc_enter_loss, cc_recovery_to_loss,
        cc_full_recoveries, cc_partial_ack_retx, cc_spurious_rtos,
        cc_after_idle, cc_first_loss_dupack, cc_first_loss_timeout,
        cc_ca_entries[4];
    obs::HistogramHandle cwnd_bytes;
    static Metrics bind();
  };
  Metrics metrics_;
  // Null unless a registry with enable_timelines() was installed when the
  // connection was constructed; owned by the registry.
  obs::ConnTimeline* timeline_ = nullptr;

  // ---- Send side ----
  Seq iss_ = 0;                 // initial send sequence number
  // Unacked + unsent bytes [snd_acked_, snd_buffered_) as shared slices.
  // Segments — including retransmissions — are zero-copy sub-slices of these
  // nodes; acking is pop_front.
  buf::Chain send_buf_;
  Offset snd_acked_ = 0;        // stream offset cumulatively acked
  Offset snd_next_ = 0;         // next stream offset to transmit
  Offset snd_max_ = 0;          // highest offset ever transmitted
  Offset snd_buffered_ = 0;     // total bytes ever accepted from the app
  bool syn_sent_ = false;
  bool syn_acked_ = false;
  bool fin_requested_ = false;  // app called shutdown
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  std::uint32_t peer_window_ = 0;
  bool send_space_was_exhausted_ = false;
  bool output_scheduled_ = false;

  // Congestion control: the module owns the window; cwnd_/ssthresh_ mirror
  // it (updated only through sync_cwnd -> set_cwnd so the timeline and the
  // tcp.cwnd_bytes histogram see every change exactly once).
  std::unique_ptr<CongestionControl> cc_;
  std::uint32_t cwnd_ = 0;
  std::uint32_t ssthresh_ = 0;
  std::uint32_t dup_acks_ = 0;
  Seq last_ack_received_ = 0;
  CaState ca_state_recorded_ = CaState::kSlowStart;  // last state in timeline
  sim::Time min_rtt_ = 0;            // smallest Karn-valid RTT sample (0=none)
  sim::Time last_send_time_ = -1;    // last SYN/FIN/data transmission
  sim::Time rto_collapse_time_ = -1;  // pending spurious-RTO probe, -1 = none
  bool forensics_flushed_ = false;

  // RTT estimation (Jacobson), Karn's rule via single in-flight sample.
  std::optional<std::pair<Offset, sim::Time>> rtt_sample_;  // (end, sent_at)
  sim::Time srtt_ = 0;
  sim::Time rttvar_ = 0;
  sim::Time rto_;
  sim::Timer rto_timer_;
  std::uint32_t syn_retries_ = 0;
  std::uint32_t consecutive_rtos_ = 0;  // reset whenever an ACK makes progress
  ConnError error_ = ConnError::kNone;

  // ---- Receive side ----
  Seq irs_ = 0;  // initial receive sequence number
  Offset rcv_next_ = 0;  // next in-order stream offset expected
  std::map<Offset, buf::Bytes> reassembly_;  // out-of-order segment slices
  buf::Chain recv_ready_;  // in-order bytes awaiting the app
  std::optional<Offset> peer_fin_offset_;
  bool peer_fin_delivered_ = false;
  bool recv_shutdown_ = false;  // naive close: arriving data answered w/ RST
  bool was_reset_ = false;
  bool window_update_needed_ = false;  // advertised a tiny window; update on read

  // Delayed ACK state.
  bool ack_pending_ = false;
  std::uint32_t unacked_segments_ = 0;
  sim::Timer delack_timer_;
  sim::Timer time_wait_timer_;

  Callback on_connected_;
  Callback on_data_;
  Callback on_peer_fin_;
  Callback on_closed_;
  Callback on_reset_;
  Callback on_send_space_;
  Callback on_failed_;
};

using ConnectionPtr = std::shared_ptr<Connection>;

}  // namespace hsim::tcp
