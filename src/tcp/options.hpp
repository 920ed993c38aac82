// Per-connection TCP tunables.
//
// Defaults approximate a mid-1990s BSD-derived stack, which is the behaviour
// the paper's measurements depend on (200 ms delayed ACK, Nagle enabled,
// 1460-byte Ethernet MSS, slow start from a small initial window).
#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "tcp/congestion.hpp"

namespace hsim::tcp {

struct TcpOptions {
  /// Maximum segment size (payload bytes per segment).
  std::uint32_t mss = 1460;

  /// Congestion-control module (tcp/congestion.hpp). kReno is byte-exact
  /// with the pre-refactor hard-wired behaviour and stays the default.
  CcKind cc = CcKind::kReno;

  /// Disables the Nagle algorithm (TCP_NODELAY). The paper recommends HTTP/1.1
  /// implementations that buffer output set this.
  bool nodelay = false;

  /// Delayed-ACK: hold a pure ACK hoping to piggyback it, up to 200 ms, but
  /// always ACK every second full segment.
  bool delayed_ack = true;

  /// Initial congestion window in segments. The paper notes "some TCP stacks
  /// implement slow start using one TCP segment whereas others use two".
  std::uint32_t initial_cwnd_segments = 2;

  /// Receive buffer = advertised window limit. Mid-1990s stacks typically
  /// defaulted to 8-16 KB socket buffers; 16 KB keeps a 28.8k modem's queue
  /// from overflowing while still covering the WAN bandwidth-delay product.
  std::uint32_t recv_buffer = 16384;

  /// Cap on unsent+unacked application data buffered in the sender.
  std::uint32_t send_buffer = 128 * 1024;

  /// Handshake give-up: abandon the connection attempt after the initial
  /// SYN (or SYN-ACK) plus this many retransmissions go unanswered; the
  /// application sees on_failed with ConnError::kConnectTimeout. 0 = retry
  /// forever (pre-fault-injection behaviour).
  std::uint32_t max_syn_retries = 6;

  /// Established-state give-up: after this many *consecutive* retransmission
  /// timeouts with no forward progress (no new data acked), the connection is
  /// torn down and on_failed fires with ConnError::kRetransmitTimeout instead
  /// of doubling the RTO through a dead link forever. 0 = never give up.
  std::uint32_t max_data_retransmits = 15;

  /// How long a fully-closed initiating endpoint lingers in TIME_WAIT.
  sim::Time time_wait_duration = sim::seconds(30);
};

}  // namespace hsim::tcp
