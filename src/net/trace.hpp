// Packet trace capture and analysis — the simulator's tcpdump.
//
// All of the paper's headline measurements (Pa, Bytes, %ov, packet trains,
// mean packet size) are computed from traces captured at the *client* side of
// the link, matching the paper's methodology ("the traces were taken on
// client side").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace hsim::net {

struct TraceRecord {
  sim::Time time = 0;
  IpAddr src = 0;
  IpAddr dst = 0;
  Port src_port = 0;
  Port dst_port = 0;
  std::uint8_t flags = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint32_t payload_bytes = 0;

  /// Multi-hop capture (topo::Router taps): the router that recorded this
  /// packet, or -1 for a host-edge / single-link capture, plus the egress
  /// queue depth (packets already queued ahead of it) at enqueue time. A
  /// trace mixing hops records the same packet once per router it crosses.
  std::int32_t hop_router = -1;
  std::uint32_t hop_queue_depth = 0;

  bool has_hop() const { return hop_router >= 0; }
  std::size_t wire_size() const { return kIpTcpHeaderBytes + payload_bytes; }
};

/// Aggregate statistics over a trace, in the paper's units.
struct TraceSummary {
  std::uint64_t packets = 0;
  std::uint64_t wire_bytes = 0;     // payload + 40 B header per packet
  std::uint64_t payload_bytes = 0;
  std::uint64_t packets_client_to_server = 0;
  std::uint64_t packets_server_to_client = 0;
  double overhead_percent = 0.0;    // 100 * header bytes / wire bytes
  double mean_packet_size = 0.0;    // wire bytes / packets
  sim::Time first_packet = 0;
  sim::Time last_packet = 0;

  double elapsed_seconds() const {
    return sim::to_seconds(last_packet - first_packet);
  }
};

/// Well-known metric names the trace recorders publish when a registry is
/// installed (see obs/metrics.hpp). One measured trace per registry: two
/// traces feeding the same registry sum their counts.
namespace metric {
inline constexpr std::string_view kTracePackets = "trace.packets";
inline constexpr std::string_view kTraceWireBytes = "trace.wire_bytes";
inline constexpr std::string_view kTracePayloadBytes = "trace.payload_bytes";
inline constexpr std::string_view kTracePacketsC2s = "trace.packets_c2s";
inline constexpr std::string_view kTracePacketsS2c = "trace.packets_s2c";
inline constexpr std::string_view kTraceSyns = "trace.syn_packets";
inline constexpr std::string_view kTraceFirstPacketNs = "trace.first_packet_ns";
inline constexpr std::string_view kTraceLastPacketNs = "trace.last_packet_ns";
}  // namespace metric

/// The trace.* registry handles, resolved once against the registry installed
/// at recorder construction time (all-null when metrics are disabled).
struct TraceMetrics {
  obs::CounterHandle packets, wire_bytes, payload_bytes, c2s, s2c, syns;
  obs::GaugeHandle first_packet, last_packet;

  static TraceMetrics bind();
  void record(sim::Time time, const Packet& packet, bool to_server,
              bool first) const;
};

/// Rebuilds a TraceSummary from the trace.* metrics of a finished run — the
/// registry-backed path the table benches read (byte-identical to
/// PacketTrace::summarize over the same packets).
TraceSummary summary_from_metrics(const obs::Registry& registry);

class PacketTrace {
 public:
  /// Direction classification requires knowing which address is the client.
  explicit PacketTrace(IpAddr client_addr = 0) : client_addr_(client_addr) {}


  void record(sim::Time time, const Packet& packet);

  /// Records a packet observed inside the network at `router`'s egress queue
  /// (depth = packets ahead of it at enqueue). Unlike record(), this does NOT
  /// feed the trace.* registry metrics: a multi-hop trace sees the same
  /// packet several times, and the registry-backed summary must keep counting
  /// each packet once (at the measured link's tap).
  void record_hop(sim::Time time, const Packet& packet, std::int32_t router,
                  std::uint32_t queue_depth);

  void clear() { records_.clear(); }

  const std::vector<TraceRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }

  TraceSummary summarize() const;

  /// Packet-train lengths: the number of packets per TCP connection
  /// (identified by 4-tuple, SYN starts a new train). The paper observes that
  /// HTTP/1.0 trains rarely exceed 10 packets while pipelined HTTP/1.1 trains
  /// are far longer.
  std::vector<std::size_t> packet_trains() const;
  double mean_packet_train_length() const;

  /// Number of distinct TCP connections (SYNs from the client) in the trace.
  std::size_t connection_count() const;

  /// Emits a human-readable tcpdump-like listing (for debugging / examples).
  std::string to_text(std::size_t max_lines = 0) const;

  /// Emits "time sequence-number" pairs for one direction, xplot-style.
  std::string to_time_sequence(bool client_to_server) const;

  /// Data packets whose (connection, seq) was already seen carrying payload:
  /// the retransmissions a careful trace reader hunts for ("implementers...
  /// must be prepared to examine TCP dumps carefully").
  std::size_t retransmitted_data_packets() const;

  /// Wire bytes per `bucket` of simulated time for one direction — the
  /// throughput-over-time view used to locate stalls.
  std::vector<std::uint64_t> throughput_series(bool client_to_server,
                                               sim::Time bucket) const;

  /// The longest gap between consecutive packets (any direction): a direct
  /// stall detector (delayed ACKs, Nagle waits, RTO backoff all show here).
  sim::Time longest_quiet_gap() const;

 private:
  IpAddr client_addr_;
  std::vector<TraceRecord> records_;
  TraceMetrics metrics_ = TraceMetrics::bind();
};

/// The many-client workloads' bottleneck tap.
///
/// Feeds the trace.* metrics (TraceMetrics) without storing per-packet
/// records — a 1000-client run pushes millions of packets through the
/// bottleneck, and only the aggregate is wanted there; summary_from_metrics
/// reads it back. Direction is classified against the *server* address
/// (everything with dst == server is client-to-server), which works for any
/// number of clients.
class TraceSummarizer {
 public:
  explicit TraceSummarizer(IpAddr server_addr = 0)
      : server_addr_(server_addr) {}

  void record(sim::Time time, const Packet& packet);

 private:
  IpAddr server_addr_;
  bool seen_packet_ = false;  // trace.first_packet_ns is set once
  TraceMetrics metrics_ = TraceMetrics::bind();
};

}  // namespace hsim::net
