#include "tcp/connection.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

#include "tcp/host.hpp"

namespace hsim::tcp {

namespace {

constexpr sim::Time kDelayedAckTimeout = sim::milliseconds(200);
// Retransmission timer: 3 s before the first RTT sample, then the
// Jacobson/Karn estimate clamped to [500 ms, 60 s].
constexpr sim::Time kInitialRto = sim::seconds(3);
constexpr sim::Time kMinRto = sim::milliseconds(500);
constexpr sim::Time kMaxRto = sim::seconds(60);

}  // namespace

std::string_view to_string(ConnError e) {
  switch (e) {
    case ConnError::kNone: return "none";
    case ConnError::kConnectTimeout: return "connect-timeout";
    case ConnError::kRetransmitTimeout: return "retransmit-timeout";
  }
  return "?";
}

Connection::Metrics Connection::Metrics::bind() {
  Metrics m;
  if (obs::registry() == nullptr) return m;
  m.segments_sent = obs::counter_handle("tcp.segments_sent");
  m.segments_received = obs::counter_handle("tcp.segments_received");
  m.bytes_sent = obs::counter_handle("tcp.bytes_sent");
  m.bytes_received = obs::counter_handle("tcp.bytes_received");
  m.retransmits = obs::counter_handle("tcp.retransmits");
  m.fast_retransmits = obs::counter_handle("tcp.fast_retransmits");
  m.rto_fires = obs::counter_handle("tcp.rto_fires");
  m.delayed_acks = obs::counter_handle("tcp.delayed_acks_fired");
  m.nagle_holds = obs::counter_handle("tcp.nagle_holds");
  m.rst_sent = obs::counter_handle("tcp.rst_sent");
  m.rst_received = obs::counter_handle("tcp.rst_received");
  m.time_wait_entered = obs::counter_handle("tcp.time_wait_entered");
  m.opened = obs::counter_handle("tcp.connections_opened");
  m.cc_enter_recovery = obs::counter_handle("tcp.cc.enter_recovery");
  m.cc_enter_loss = obs::counter_handle("tcp.cc.enter_loss");
  m.cc_recovery_to_loss = obs::counter_handle("tcp.cc.recovery_to_loss");
  m.cc_full_recoveries = obs::counter_handle("tcp.cc.full_recoveries");
  m.cc_partial_ack_retx = obs::counter_handle("tcp.cc.partial_ack_retransmits");
  m.cc_spurious_rtos = obs::counter_handle("tcp.cc.spurious_rtos");
  m.cc_after_idle = obs::counter_handle("tcp.cc.after_idle_restarts");
  m.cc_first_loss_dupack = obs::counter_handle("tcp.cc.first_loss.dupack");
  m.cc_first_loss_timeout = obs::counter_handle("tcp.cc.first_loss.timeout");
  m.cc_ca_entries[0] = obs::counter_handle("tcp.cc.ca_entries.slow_start");
  m.cc_ca_entries[1] = obs::counter_handle("tcp.cc.ca_entries.avoidance");
  m.cc_ca_entries[2] = obs::counter_handle("tcp.cc.ca_entries.fast_recovery");
  m.cc_ca_entries[3] = obs::counter_handle("tcp.cc.ca_entries.loss");
  m.cwnd_bytes = obs::histogram_handle("tcp.cwnd_bytes");
  return m;
}

Connection::Connection(Host& host, Key key, TcpOptions options)
    : host_(host),
      key_(key),
      options_(options),
      metrics_(host.connection_metrics()),
      cc_(CongestionControl::make(options.cc)),
      rto_(kInitialRto),
      rto_timer_(host.event_queue()),
      delack_timer_(host.event_queue()),
      time_wait_timer_(host.event_queue()) {
  metrics_.opened.inc();
  obs::Registry* reg = obs::registry();
  if (reg != nullptr && reg->timelines_enabled()) {
    char label[64];
    std::snprintf(label, sizeof label, "%u:%u>%u:%u", host_.addr(),
                  key_.local_port, key_.peer_addr, key_.peer_port);
    timeline_ = reg->make_timeline(label);
  }
}

Connection::~Connection() { flush_forensics(); }

void Connection::flush_forensics() {
  if (forensics_flushed_) return;
  forensics_flushed_ = true;
  // Guard against a connection outliving its registry (handles would dangle).
  if (obs::registry() == nullptr) return;
  const LossForensics& f = cc_->forensics();
  metrics_.cc_enter_recovery.inc(f.enter_recovery);
  metrics_.cc_enter_loss.inc(f.enter_loss);
  metrics_.cc_recovery_to_loss.inc(f.recovery_to_loss);
  metrics_.cc_full_recoveries.inc(f.full_recoveries);
  metrics_.cc_partial_ack_retx.inc(f.partial_ack_retransmits);
  metrics_.cc_spurious_rtos.inc(f.spurious_rtos);
  metrics_.cc_after_idle.inc(f.after_idle_resets);
  if (f.first_loss_reason == LossReason::kDupAck) {
    metrics_.cc_first_loss_dupack.inc();
  } else if (f.first_loss_reason == LossReason::kTimeout) {
    metrics_.cc_first_loss_timeout.inc();
  }
  for (int i = 0; i < 4; ++i) metrics_.cc_ca_entries[i].inc(f.ca_entries[i]);
}

void Connection::tl(obs::TlKind kind, std::uint8_t flags, std::uint64_t a,
                    std::uint64_t b) {
  if (timeline_ != nullptr) {
    timeline_->record(host_.event_queue().now(), kind, flags, a, b);
  }
}

void Connection::set_state(State s) {
  if (s == state_) return;
  tl(obs::TlKind::kStateChange, 0, static_cast<std::uint64_t>(state_),
     static_cast<std::uint64_t>(s));
  state_ = s;
}

void Connection::set_cwnd(std::uint32_t cwnd, std::uint32_t ssthresh) {
  const CaState state = cc_->ca_state();
  const bool changed =
      cwnd != cwnd_ || ssthresh != ssthresh_ || state != ca_state_recorded_;
  cwnd_ = cwnd;
  ssthresh_ = ssthresh;
  metrics_.cwnd_bytes.observe(cwnd);
  if (changed) {
    ca_state_recorded_ = state;
    tl(obs::TlKind::kCwndChange, static_cast<std::uint8_t>(state), cwnd,
       ssthresh);
  }
}

CcContext Connection::cc_ctx() const {
  CcContext ctx;
  ctx.now = host_.event_queue().now();
  ctx.mss = options_.mss;
  ctx.initial_cwnd = options_.initial_cwnd_segments * options_.mss;
  ctx.bytes_in_flight = bytes_in_flight();
  ctx.snd_acked = snd_acked_;
  ctx.snd_max = snd_max_;
  ctx.srtt = srtt_;
  ctx.min_rtt = min_rtt_;
  return ctx;
}

void Connection::sync_cwnd(bool force) {
  if (force || cc_->cwnd() != cwnd_ || cc_->ssthresh() != ssthresh_ ||
      cc_->ca_state() != ca_state_recorded_) {
    set_cwnd(cc_->cwnd(), cc_->ssthresh());
  }
}

// ---------------------------------------------------------------------------
// Wire <-> stream offset mapping
// ---------------------------------------------------------------------------

Seq Connection::wire_seq(Offset data_offset) const {
  return static_cast<Seq>(iss_ + 1 + data_offset);
}

// ---------------------------------------------------------------------------
// Application interface
// ---------------------------------------------------------------------------

std::size_t Connection::send(std::span<const std::uint8_t> data) {
  if (fin_requested_ || state_ == State::kClosed ||
      state_ == State::kTimeWait || was_reset_) {
    return 0;
  }
  const std::size_t room = send_space();
  const std::size_t n = std::min(room, data.size());
  send_buf_.append_copy(data.first(n));
  snd_buffered_ += n;
  if (n < data.size()) send_space_was_exhausted_ = true;
  if (state_ == State::kEstablished || state_ == State::kCloseWait) {
    schedule_output();
  }
  return n;
}

std::size_t Connection::send(std::string_view text) {
  return send(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::size_t Connection::send(buf::Bytes data) {
  if (fin_requested_ || state_ == State::kClosed ||
      state_ == State::kTimeWait || was_reset_) {
    return 0;
  }
  const std::size_t room = send_space();
  const std::size_t n = std::min(room, data.size());
  send_buf_.append(data.slice(0, n));
  snd_buffered_ += n;
  if (n < data.size()) send_space_was_exhausted_ = true;
  if (state_ == State::kEstablished || state_ == State::kCloseWait) {
    schedule_output();
  }
  return n;
}

std::size_t Connection::send(const buf::Chain& data, std::size_t limit) {
  if (fin_requested_ || state_ == State::kClosed ||
      state_ == State::kTimeWait || was_reset_) {
    return 0;
  }
  const std::size_t wanted = std::min(limit, data.size());
  const std::size_t room = send_space();
  const std::size_t n = std::min(room, wanted);
  send_buf_.append(data.slice(0, n));
  snd_buffered_ += n;
  if (n < wanted) send_space_was_exhausted_ = true;
  if (state_ == State::kEstablished || state_ == State::kCloseWait) {
    schedule_output();
  }
  return n;
}

std::size_t Connection::send_space() const {
  const std::size_t used = send_buf_.size();
  return used >= options_.send_buffer ? 0 : options_.send_buffer - used;
}

buf::Chain Connection::read_all() {
  buf::Chain out = std::move(recv_ready_);
  recv_ready_.clear();
  // If we previously advertised a nearly-closed window, reading frees buffer
  // space the peer cannot know about: send a window update so the sender does
  // not stall (the receive-side analogue of the persist timer).
  if (window_update_needed_ && state_ != State::kClosed &&
      state_ != State::kSynSent && state_ != State::kSynRcvd &&
      state_ != State::kTimeWait &&
      advertised_window() >= options_.recv_buffer / 2) {
    window_update_needed_ = false;
    if (!out.empty()) send_pure_ack();
  }
  return out;
}

void Connection::shutdown_send() {
  if (fin_requested_) return;
  fin_requested_ = true;
  if (state_ == State::kEstablished || state_ == State::kCloseWait ||
      state_ == State::kSynRcvd) {
    schedule_output();
  }
}

void Connection::close_naive() {
  // Close both directions "at once": queue the FIN like a graceful close, but
  // also stop accepting incoming data. Any data segment that arrives after
  // this point is answered with RST — destroying, on the peer, responses it
  // had received but not yet read. This reproduces the failure mode in the
  // paper's "Connection Management" section.
  recv_shutdown_ = true;
  shutdown_send();
}

void Connection::abort() {
  if (state_ == State::kClosed) return;
  send_rst(wire_seq(snd_next_));
  become_closed(/*notify_reset=*/false);
}

// ---------------------------------------------------------------------------
// Opening
// ---------------------------------------------------------------------------

void Connection::start_connect() {
  iss_ = host_.rng().next_u32();
  set_state(State::kSynSent);
  syn_sent_ = true;
  cc_->init(cc_ctx());
  sync_cwnd(/*force=*/true);
  net::Packet p;
  p.tcp.seq = iss_;
  p.tcp.flags = net::flag::kSyn;
  p.tcp.window = advertised_window();
  p.tcp.src_port = key_.local_port;
  p.tcp.dst_port = key_.peer_port;
  p.src = host_.addr();
  p.dst = key_.peer_addr;
  ++stats_.segments_sent;
  metrics_.segments_sent.inc();
  tl(obs::TlKind::kSegSent, p.tcp.flags, p.tcp.seq, 0);
  host_.transmit(std::move(p));
  arm_rto();
}

void Connection::start_accept(const net::Packet& syn) {
  iss_ = host_.rng().next_u32();
  irs_ = syn.tcp.seq;
  peer_window_ = syn.tcp.window;
  set_state(State::kSynRcvd);
  syn_sent_ = true;
  cc_->init(cc_ctx());
  sync_cwnd(/*force=*/true);
  net::Packet p;
  p.tcp.seq = iss_;
  p.tcp.ack = irs_ + 1;
  p.tcp.flags = net::flag::kSyn | net::flag::kAck;
  p.tcp.window = advertised_window();
  p.tcp.src_port = key_.local_port;
  p.tcp.dst_port = key_.peer_port;
  p.src = host_.addr();
  p.dst = key_.peer_addr;
  ++stats_.segments_sent;
  metrics_.segments_sent.inc();
  tl(obs::TlKind::kSegSent, p.tcp.flags, p.tcp.seq, 0);
  host_.transmit(std::move(p));
  arm_rto();
}

// ---------------------------------------------------------------------------
// Segment transmission
// ---------------------------------------------------------------------------

std::uint32_t Connection::advertised_window() const {
  std::size_t pending = recv_ready_.size();
  for (const auto& [off, bytes] : reassembly_) pending += bytes.size();
  if (pending >= options_.recv_buffer) return 0;
  return options_.recv_buffer - static_cast<std::uint32_t>(pending);
}

void Connection::send_segment(std::uint8_t flags, Seq seq, buf::Bytes payload,
                              bool is_retransmit) {
  net::Packet p;
  p.src = host_.addr();
  p.dst = key_.peer_addr;
  p.tcp.src_port = key_.local_port;
  p.tcp.dst_port = key_.peer_port;
  p.tcp.seq = seq;
  p.tcp.flags = flags;
  if (flags & net::flag::kAck) {
    p.tcp.ack = static_cast<Seq>(irs_ + 1 + rcv_next_ +
                                 (peer_fin_delivered_ ? 1 : 0));
  }
  p.tcp.window = advertised_window();
  if (p.tcp.window < options_.mss) window_update_needed_ = true;
  // Track the last transmission that occupied sequence space (data or FIN);
  // pure ACKs don't count as "sending" for the RFC 2861 idle-restart check.
  if (!payload.empty() || (flags & net::flag::kFin)) {
    last_send_time_ = host_.event_queue().now();
  }
  p.payload = std::move(payload);

  ++stats_.segments_sent;
  stats_.bytes_sent += p.payload.size();
  if (is_retransmit) ++stats_.retransmits;
  metrics_.segments_sent.inc();
  metrics_.bytes_sent.inc(p.payload.size());
  if (is_retransmit) metrics_.retransmits.inc();
  tl(obs::TlKind::kSegSent, p.tcp.flags, p.tcp.seq, p.payload.size());

  // Any segment carrying an ACK satisfies a pending delayed ACK.
  if (flags & net::flag::kAck) {
    ack_pending_ = false;
    unacked_segments_ = 0;
    delack_timer_.cancel();
  }
  host_.transmit(std::move(p));
}

void Connection::send_pure_ack() {
  send_segment(net::flag::kAck, static_cast<Seq>(wire_seq(snd_next_) +
                                                 (fin_sent_ ? 1 : 0)),
               buf::Bytes{}, false);
}

void Connection::send_rst(Seq seq, bool failure_path) {
  net::Packet p;
  p.src = host_.addr();
  p.dst = key_.peer_addr;
  p.tcp.src_port = key_.local_port;
  p.tcp.dst_port = key_.peer_port;
  p.tcp.seq = seq;
  p.tcp.flags = net::flag::kRst;
  ++stats_.segments_sent;
  metrics_.segments_sent.inc();
  metrics_.rst_sent.inc();
  tl(obs::TlKind::kRstSent, failure_path ? 1 : 0, seq, 0);
  host_.transmit(std::move(p));
}

// ---------------------------------------------------------------------------
// Output engine: window checks, Nagle, FIN piggybacking
// ---------------------------------------------------------------------------

void Connection::schedule_output() {
  if (output_scheduled_) return;
  output_scheduled_ = true;
  host_.event_queue().schedule_in(0, [weak = weak_from_this()] {
    if (ConnectionPtr self = weak.lock()) {
      self->output_scheduled_ = false;
      self->try_send();
    }
  });
}

bool Connection::nagle_blocks(std::size_t segment_len, bool carries_fin) const {
  if (options_.nodelay) return false;
  if (segment_len >= options_.mss) return false;
  if (carries_fin) return false;  // BSD sends the final small segment
  return bytes_in_flight() > 0;
}

void Connection::try_send() {
  const bool sending_state =
      state_ == State::kEstablished || state_ == State::kCloseWait;
  // After a go-back-N timeout pullback we may need to re-send data even
  // though our FIN is already out and the state has advanced.
  const bool recovery_resend =
      (state_ == State::kFinWait1 || state_ == State::kClosing ||
       state_ == State::kLastAck) &&
      snd_next_ < snd_buffered_;
  if (!sending_state && !recovery_resend) return;
  // RFC 2861 idle restart: the connection has sent before, everything is
  // acked, new data is waiting, and at least one RTO has passed since the
  // last transmission — let the CC module decay its window (Reno keeps the
  // legacy behaviour of doing nothing).
  if (last_send_time_ >= 0 && snd_max_ > 0 && bytes_in_flight() == 0 &&
      snd_next_ < snd_buffered_ &&
      host_.event_queue().now() - last_send_time_ >= rto_) {
    cc_->after_idle(cc_ctx());
    sync_cwnd(/*force=*/false);
  }
  bool sent_any = false;
  for (;;) {
    const Offset avail = snd_buffered_ - snd_next_;
    if (avail == 0) break;
    const std::uint64_t window = std::min<std::uint64_t>(cwnd_, peer_window_);
    const Offset flight = bytes_in_flight();
    if (flight >= window) break;
    const std::uint64_t usable = window - flight;
    const std::size_t seg = static_cast<std::size_t>(
        std::min<std::uint64_t>({options_.mss, avail, usable}));
    if (seg == 0) break;
    const bool last_of_avail = (seg == avail);
    const bool carries_fin = last_of_avail && fin_requested_;
    if (nagle_blocks(seg, carries_fin)) {
      ++stats_.nagle_delays;
      metrics_.nagle_holds.inc();
      tl(obs::TlKind::kNagleHold, 0, seg, 0);
      break;
    }

    // Slice [snd_next_, snd_next_+seg) out of the send chain; the chain's
    // front corresponds to stream offset snd_acked_. Zero-copy unless the
    // segment happens to straddle two application writes.
    const std::size_t buf_off = static_cast<std::size_t>(snd_next_ - snd_acked_);
    buf::Bytes payload = send_buf_.slice_bytes(buf_off, seg);

    std::uint8_t flags = net::flag::kAck;
    if (last_of_avail) flags |= net::flag::kPsh;
    if (carries_fin) {
      flags |= net::flag::kFin;
      if (!fin_sent_) {
        fin_sent_ = true;
        set_state(state_ == State::kCloseWait ? State::kLastAck
                                              : State::kFinWait1);
      }
    }
    if (!rtt_sample_) {
      rtt_sample_ = {snd_next_ + seg, host_.event_queue().now()};
    }
    send_segment(flags, wire_seq(snd_next_), std::move(payload),
                 /*is_retransmit=*/snd_next_ < snd_max_);
    snd_next_ += seg;
    snd_max_ = std::max(snd_max_, snd_next_);
    sent_any = true;
    if (carries_fin) break;
  }
  maybe_send_fin();
  if (sent_any) {
    arm_rto();
  } else if (fin_sent_ && !fin_acked_ && !rto_timer_.armed()) {
    arm_rto();
  }
}

void Connection::maybe_send_fin() {
  if (!fin_requested_ || fin_sent_) return;
  if (snd_next_ != snd_buffered_) return;  // data still queued
  // A bare FIN (no data available to carry it).
  fin_sent_ = true;
  send_segment(net::flag::kFin | net::flag::kAck, wire_seq(snd_next_),
               buf::Bytes{}, false);
  set_state(state_ == State::kCloseWait ? State::kLastAck : State::kFinWait1);
  arm_rto();
}

// ---------------------------------------------------------------------------
// Timers / congestion control
// ---------------------------------------------------------------------------

void Connection::arm_rto() {
  rto_timer_.arm(rto_, [this] { on_rto_fire(); });
}

void Connection::on_rto_fire() {
  ++stats_.timeouts;
  rto_ = std::min(rto_ * 2, kMaxRto);
  metrics_.rto_fires.inc();
  tl(obs::TlKind::kRtoFire, 0, static_cast<std::uint64_t>(rto_),
     consecutive_rtos_ + 1);
  rtt_sample_.reset();  // Karn: never sample retransmitted data

  // Give-up checks: a cap of 0 means "retry forever".
  if (state_ == State::kSynSent || state_ == State::kSynRcvd) {
    if (options_.max_syn_retries != 0 &&
        syn_retries_ >= options_.max_syn_retries) {
      become_failed(ConnError::kConnectTimeout);
      return;
    }
    ++syn_retries_;
  } else {
    if (options_.max_data_retransmits != 0 &&
        consecutive_rtos_ >= options_.max_data_retransmits) {
      become_failed(ConnError::kRetransmitTimeout);
      return;
    }
    ++consecutive_rtos_;
  }

  if (state_ == State::kSynSent) {
    net::Packet p;
    p.src = host_.addr();
    p.dst = key_.peer_addr;
    p.tcp.src_port = key_.local_port;
    p.tcp.dst_port = key_.peer_port;
    p.tcp.seq = iss_;
    p.tcp.flags = net::flag::kSyn;
    p.tcp.window = advertised_window();
    ++stats_.segments_sent;
    ++stats_.retransmits;
    metrics_.segments_sent.inc();
    metrics_.retransmits.inc();
    tl(obs::TlKind::kSegSent, p.tcp.flags, p.tcp.seq, 0);
    host_.transmit(std::move(p));
    arm_rto();
    return;
  }
  if (state_ == State::kSynRcvd) {
    net::Packet p;
    p.src = host_.addr();
    p.dst = key_.peer_addr;
    p.tcp.src_port = key_.local_port;
    p.tcp.dst_port = key_.peer_port;
    p.tcp.seq = iss_;
    p.tcp.ack = irs_ + 1;
    p.tcp.flags = net::flag::kSyn | net::flag::kAck;
    p.tcp.window = advertised_window();
    ++stats_.segments_sent;
    ++stats_.retransmits;
    metrics_.segments_sent.inc();
    metrics_.retransmits.inc();
    tl(obs::TlKind::kSegSent, p.tcp.flags, p.tcp.seq, 0);
    host_.transmit(std::move(p));
    arm_rto();
    return;
  }

  const Offset unacked_data = snd_next_ - snd_acked_;
  if (unacked_data == 0 && !(fin_sent_ && !fin_acked_)) return;

  // Congestion response to a timeout: the module collapses its window
  // (Reno: one segment + half-flight ssthresh).
  cc_->on_timeout(cc_ctx());
  sync_cwnd(/*force=*/true);
  dup_acks_ = 0;
  // Arm the spurious-RTO probe: if the next advancing ACK lands sooner than
  // one min-RTT, it must have been triggered by the original flight — the
  // timeout fired for data that had actually been delivered.
  rto_collapse_time_ = host_.event_queue().now();

  if (unacked_data > 0) {
    // Go-back-N: retransmit the earliest unacked segment now and pull
    // snd_next_ back so ACK-driven sending re-covers the whole lost window
    // (a timeout usually means everything in flight was lost).
    const std::size_t seg = static_cast<std::size_t>(
        std::min<Offset>(options_.mss, unacked_data));
    // Re-slice the front of the send chain: the retransmission aliases the
    // same bytes the original segment carried, no rebuild.
    buf::Bytes payload = send_buf_.slice_bytes(0, seg);
    std::uint8_t flags = net::flag::kAck;
    const bool reaches_end = (snd_acked_ + seg == snd_buffered_);
    if (reaches_end) flags |= net::flag::kPsh;
    if (fin_sent_ && reaches_end) flags |= net::flag::kFin;
    send_segment(flags, wire_seq(snd_acked_), std::move(payload), true);
    snd_next_ = snd_acked_ + seg;
  } else {
    // Bare FIN retransmission.
    send_segment(net::flag::kFin | net::flag::kAck, wire_seq(snd_next_),
                 buf::Bytes{}, true);
  }
  arm_rto();
}

bool Connection::on_new_data_acked(Offset newly_acked_end,
                                   std::size_t acked_bytes) {
  // RTT sample (Karn's rule: sample only if it covers an untouched send).
  if (rtt_sample_ && newly_acked_end >= rtt_sample_->first) {
    const sim::Time sample = host_.event_queue().now() - rtt_sample_->second;
    rtt_sample_.reset();
    if (srtt_ == 0) {
      srtt_ = sample;
      rttvar_ = sample / 2;
    } else {
      const sim::Time err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
      srtt_ += (sample - srtt_) / 8;
      rttvar_ += (err - rttvar_) / 4;
    }
    rto_ = std::clamp(srtt_ + 4 * rttvar_, kMinRto, kMaxRto);
    if (min_rtt_ == 0 || sample < min_rtt_) min_rtt_ = sample;
    cc_->on_rtt_sample(cc_ctx(), sample);
    sync_cwnd(/*force=*/false);
  }

  consecutive_rtos_ = 0;  // forward progress: the path is alive

  // Spurious-RTO probe: an advancing ACK within one min-RTT of the collapse
  // can only be a response to the pre-RTO flight (a retransmission's ACK
  // needs at least min-RTT). Observational only — the window stays collapsed.
  if (rto_collapse_time_ >= 0) {
    if (min_rtt_ > 0 &&
        host_.event_queue().now() - rto_collapse_time_ < min_rtt_) {
      cc_->note_spurious_rto();
    }
    rto_collapse_time_ = -1;
  }

  // Congestion window growth (and, inside the module, recovery bookkeeping:
  // full-ACK episode exit, partial-ACK repair decisions).
  const bool repair_hole = cc_->on_new_ack(cc_ctx(), acked_bytes);
  sync_cwnd(/*force=*/true);
  dup_acks_ = 0;
  return repair_hole;
}

void Connection::retransmit_front_segment() {
  const Offset unacked = snd_next_ - snd_acked_;
  const std::size_t seg =
      static_cast<std::size_t>(std::min<Offset>(options_.mss, unacked));
  if (seg == 0) return;
  // Reuse the front slice of the send chain — retransmissions alias the
  // bytes the original segment carried.
  buf::Bytes payload = send_buf_.slice_bytes(0, seg);
  std::uint8_t flags = net::flag::kAck;
  const bool reaches_end = (snd_acked_ + seg == snd_buffered_);
  if (fin_sent_ && reaches_end) flags |= net::flag::kFin;
  send_segment(flags, wire_seq(snd_acked_), std::move(payload), true);
  arm_rto();
}

// ---------------------------------------------------------------------------
// Input engine
// ---------------------------------------------------------------------------

void Connection::segment_arrived(const net::Packet& packet) {
  ++stats_.segments_received;
  if (state_ == State::kClosed) return;
  metrics_.segments_received.inc();
  tl(obs::TlKind::kSegRecvd, packet.tcp.flags, packet.tcp.seq,
     packet.payload.size());

  // RST: tear everything down. Unread received data is destroyed — this is
  // the data-loss behaviour the paper's connection-management section warns
  // about.
  if (packet.tcp.has(net::flag::kRst)) {
    metrics_.rst_received.inc();
    tl(obs::TlKind::kRstRecvd, 0, packet.tcp.seq, 0);
    become_closed(/*notify_reset=*/true);
    return;
  }

  // -- Handshake states ----------------------------------------------------
  if (state_ == State::kSynSent) {
    if (packet.tcp.has(net::flag::kSyn) && packet.tcp.has(net::flag::kAck) &&
        packet.tcp.ack == iss_ + 1) {
      irs_ = packet.tcp.seq;
      syn_acked_ = true;
      peer_window_ = packet.tcp.window;
      set_state(State::kEstablished);
      rto_timer_.cancel();
      rto_ = kInitialRto;
      if (srtt_ == 0) {
        // Use the handshake as the first RTT estimate.
        srtt_ = kMinRto / 2;
      }
      send_pure_ack();
      if (on_connected_) on_connected_();
      try_send();
    }
    return;
  }
  if (state_ == State::kSynRcvd) {
    if (packet.tcp.has(net::flag::kAck) && packet.tcp.ack == iss_ + 1) {
      syn_acked_ = true;
      peer_window_ = packet.tcp.window;
      set_state(State::kEstablished);
      rto_timer_.cancel();
      rto_ = kInitialRto;
      if (on_connected_) on_connected_();
      // Fall through: the handshake ACK may carry data (client pipelining
      // requests into the third handshake segment is legal).
    } else if (packet.tcp.has(net::flag::kSyn)) {
      // Duplicate SYN: retransmit SYN-ACK via the RTO path eventually.
      return;
    } else {
      return;
    }
  }
  if (state_ == State::kTimeWait) {
    // Peer retransmitted its FIN: re-ACK it.
    if (packet.tcp.has(net::flag::kFin)) send_pure_ack();
    return;
  }

  if (packet.tcp.has(net::flag::kAck)) handle_ack(packet);
  if (state_ == State::kClosed) return;  // handle_ack may complete a close

  const bool had_payload = !packet.payload.empty();
  if (had_payload || packet.tcp.has(net::flag::kFin)) {
    accept_payload(packet);
  }
}

void Connection::handle_ack(const net::Packet& packet) {
  peer_window_ = packet.tcp.window;
  const Seq ack = packet.tcp.ack;
  const Seq cur = wire_seq(snd_acked_);
  const std::int32_t diff = static_cast<std::int32_t>(ack - cur);

  if (diff < 0) return;  // old ACK

  if (diff == 0) {
    // Potential duplicate ACK (RFC 5681: no payload, no window change, data
    // outstanding).
    if (packet.payload.empty() && !packet.tcp.has(net::flag::kSyn) &&
        !packet.tcp.has(net::flag::kFin) && bytes_in_flight() > 0 &&
        ack == last_ack_received_) {
      ++dup_acks_;
      cc_->on_duplicate_ack(cc_ctx(), dup_acks_);
      sync_cwnd(/*force=*/false);
      if (dup_acks_ == 3 && cc_->on_loss_detected(cc_ctx())) {
        // The module (re-)entered fast recovery (Reno re-halves on repeat
        // 3-dup-ack episodes; NewReno-style modules decline while already
        // recovering, so the retransmit and the halving are skipped).
        ++stats_.fast_retransmits;
        metrics_.fast_retransmits.inc();
        tl(obs::TlKind::kFastRetransmit, 0, wire_seq(snd_acked_), 0);
        sync_cwnd(/*force=*/true);
        rtt_sample_.reset();
        retransmit_front_segment();
      }
    }
    last_ack_received_ = ack;
    try_send();  // window update may have opened the send window
    return;
  }

  last_ack_received_ = ack;

  // New data (and possibly our FIN) acknowledged. Compare against the
  // high-water mark, not snd_next_: after a go-back-N pullback an ACK may
  // cover segments from the original flight.
  const Offset ackable = snd_max_ - snd_acked_;
  std::size_t acked_bytes = 0;
  if (static_cast<Offset>(diff) > ackable) {
    // The ACK covers all transmitted data plus our FIN.
    acked_bytes = static_cast<std::size_t>(ackable);
    if (fin_sent_) fin_acked_ = true;
  } else {
    acked_bytes = static_cast<std::size_t>(diff);
  }

  send_buf_.pop_front(acked_bytes);
  snd_acked_ += acked_bytes;
  if (snd_next_ < snd_acked_) snd_next_ = snd_acked_;
  if (on_new_data_acked(snd_acked_, acked_bytes)) {
    // NewReno-style partial-ACK repair: the ACK exposed the next hole;
    // retransmit it immediately instead of waiting for three more dups.
    retransmit_front_segment();
  }

  // Restart or cancel the retransmission timer.
  if (bytes_in_flight() > 0 || (fin_sent_ && !fin_acked_)) {
    arm_rto();
  } else {
    rto_timer_.cancel();
  }

  // Close-sequence state transitions driven by our FIN being acknowledged.
  if (fin_acked_) {
    if (state_ == State::kFinWait1) {
      if (peer_fin_delivered_) {
        enter_time_wait();
      } else {
        set_state(State::kFinWait2);
      }
    } else if (state_ == State::kClosing) {
      enter_time_wait();
    } else if (state_ == State::kLastAck) {
      become_closed(/*notify_reset=*/false);
      return;
    }
  }

  if (send_space_was_exhausted_ && send_space() > 0) {
    send_space_was_exhausted_ = false;
    if (on_send_space_) on_send_space_();
  }
  try_send();
}

void Connection::accept_payload(const net::Packet& packet) {
  // Naive-close mode: the receiving direction is gone; arriving data hits a
  // closed door and draws an RST.
  if (recv_shutdown_ && !packet.payload.empty()) {
    send_rst(static_cast<Seq>(wire_seq(snd_next_) + (fin_sent_ ? 1 : 0)));
    become_closed(/*notify_reset=*/false);
    return;
  }

  const Seq expected = static_cast<Seq>(irs_ + 1 + rcv_next_);
  const std::int64_t rel = static_cast<std::int32_t>(packet.tcp.seq - expected);
  const std::int64_t seg_start = static_cast<std::int64_t>(rcv_next_) + rel;
  const std::size_t len = packet.payload.size();

  bool out_of_order = false;
  if (len > 0) {
    if (seg_start + static_cast<std::int64_t>(len) <=
        static_cast<std::int64_t>(rcv_next_)) {
      // Entirely old data: pure duplicate; ACK immediately.
      out_of_order = true;
    } else {
      std::size_t skip = 0;
      Offset store_at = static_cast<Offset>(seg_start);
      if (seg_start < static_cast<std::int64_t>(rcv_next_)) {
        skip = static_cast<std::size_t>(
            static_cast<std::int64_t>(rcv_next_) - seg_start);
        store_at = rcv_next_;
      }
      // Shared slice of the arriving segment — reassembly and the app-facing
      // ready chain alias the sender's original buffer.
      buf::Bytes bytes = packet.payload.slice(skip);
      if (store_at == rcv_next_) {
        rcv_next_ += bytes.size();
        stats_.bytes_received += bytes.size();
        metrics_.bytes_received.inc(bytes.size());
        recv_ready_.append(std::move(bytes));
        deliver_in_order();
      } else {
        out_of_order = true;
        auto [it, inserted] = reassembly_.try_emplace(store_at, bytes);
        if (!inserted && it->second.size() < bytes.size()) {
          it->second = std::move(bytes);
        }
      }
    }
  }

  // FIN handling: the FIN occupies the sequence slot after the segment data.
  if (packet.tcp.has(net::flag::kFin)) {
    const Offset fin_off = static_cast<Offset>(seg_start) + len;
    if (!peer_fin_offset_) peer_fin_offset_ = fin_off;
  }

  bool fin_just_delivered = false;
  if (peer_fin_offset_ && !peer_fin_delivered_ &&
      rcv_next_ == *peer_fin_offset_) {
    peer_fin_delivered_ = true;
    fin_just_delivered = true;
    if (state_ == State::kEstablished) {
      set_state(State::kCloseWait);
    } else if (state_ == State::kFinWait1) {
      if (fin_acked_) {
        enter_time_wait();
      } else {
        set_state(State::kClosing);
      }
    } else if (state_ == State::kFinWait2) {
      enter_time_wait();
    }
  }

  // Let the application react *before* we decide how to ACK, so that
  // application responses (HTTP replies, further pipelined requests) can
  // carry the ACK with them instead of costing a separate packet.
  ack_pending_ = true;
  if (len > 0) ++unacked_segments_;
  if (!recv_ready_.empty() && on_data_) on_data_();
  if (fin_just_delivered && on_peer_fin_) on_peer_fin_();
  if (state_ == State::kClosed) return;  // app may have aborted

  if (ack_pending_) {
    schedule_ack(/*force_now=*/out_of_order || fin_just_delivered);
  }
}

void Connection::deliver_in_order() {
  // Pull contiguous segments out of the reassembly queue.
  for (auto it = reassembly_.begin(); it != reassembly_.end();) {
    if (it->first > rcv_next_) break;
    buf::Bytes& bytes = it->second;
    if (it->first + bytes.size() <= rcv_next_) {
      it = reassembly_.erase(it);
      continue;
    }
    const std::size_t skip = static_cast<std::size_t>(rcv_next_ - it->first);
    stats_.bytes_received += bytes.size() - skip;
    metrics_.bytes_received.inc(bytes.size() - skip);
    rcv_next_ += bytes.size() - skip;
    recv_ready_.append(bytes.slice(skip));
    it = reassembly_.erase(it);
  }
}

void Connection::schedule_ack(bool force_now) {
  if (force_now || !options_.delayed_ack || unacked_segments_ >= 2) {
    send_pure_ack();
    return;
  }
  if (!delack_timer_.armed()) {
    delack_timer_.arm(kDelayedAckTimeout, [this] {
      if (ack_pending_) {
        ++stats_.delayed_acks_fired;
        metrics_.delayed_acks.inc();
        tl(obs::TlKind::kDelayedAck);
        send_pure_ack();
      }
    });
  }
}

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

void Connection::enter_time_wait() {
  set_state(State::kTimeWait);
  metrics_.time_wait_entered.inc();
  rto_timer_.cancel();
  time_wait_timer_.arm(options_.time_wait_duration,
                       [this] { become_closed(false); });
}

void Connection::become_failed(ConnError error) {
  if (state_ == State::kClosed) return;
  error_ = error;
  flush_forensics();
  // Best-effort RST so the peer does not linger half-open if the path heals.
  send_rst(static_cast<Seq>(wire_seq(snd_next_) + (fin_sent_ ? 1 : 0)),
           /*failure_path=*/true);
  set_state(State::kClosed);
  rto_timer_.cancel();
  delack_timer_.cancel();
  time_wait_timer_.cancel();
  recv_ready_.clear();
  reassembly_.clear();
  send_buf_.clear();
  // A failed connection loses unread data exactly like a reset, so on_reset
  // is the fallback for applications that do not wire on_failed.
  Callback cb = on_failed_ ? on_failed_ : on_reset_;
  ConnectionPtr self = host_.remove_connection(key_);
  if (cb) cb();
}

void Connection::become_closed(bool notify_reset) {
  if (state_ == State::kClosed) return;
  flush_forensics();
  set_state(State::kClosed);
  rto_timer_.cancel();
  delack_timer_.cancel();
  time_wait_timer_.cancel();
  if (notify_reset) {
    was_reset_ = true;
    // BSD semantics: an incoming RST destroys data the application has not
    // yet read from the socket.
    recv_ready_.clear();
    reassembly_.clear();
  }
  send_buf_.clear();
  // Keep `this` alive through the callback: removing the connection from the
  // host's table may drop the last owning reference.
  Callback cb = notify_reset ? on_reset_ : on_closed_;
  ConnectionPtr self = host_.remove_connection(key_);
  if (cb) cb();
}

}  // namespace hsim::tcp
