#include "net/trace.hpp"

#include "net/trace_io.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

namespace hsim::net {

namespace {
/// The paper's derived columns, computed one way for every summary producer
/// (summarize_records, summary_from_metrics) so registry-backed numbers are
/// byte-identical to the record-walking ones.
void fill_ratios(TraceSummary& s) {
  if (s.packets == 0) return;
  const std::uint64_t header_bytes = s.packets * kIpTcpHeaderBytes;
  s.overhead_percent = 100.0 * static_cast<double>(header_bytes) /
                       static_cast<double>(s.wire_bytes);
  s.mean_packet_size =
      static_cast<double>(s.wire_bytes) / static_cast<double>(s.packets);
}
}  // namespace

TraceMetrics TraceMetrics::bind() {
  TraceMetrics m;
  if (obs::registry() == nullptr) return m;
  m.packets = obs::counter_handle(metric::kTracePackets);
  m.wire_bytes = obs::counter_handle(metric::kTraceWireBytes);
  m.payload_bytes = obs::counter_handle(metric::kTracePayloadBytes);
  m.c2s = obs::counter_handle(metric::kTracePacketsC2s);
  m.s2c = obs::counter_handle(metric::kTracePacketsS2c);
  m.syns = obs::counter_handle(metric::kTraceSyns);
  m.first_packet = obs::gauge_handle(metric::kTraceFirstPacketNs);
  m.last_packet = obs::gauge_handle(metric::kTraceLastPacketNs);
  return m;
}

void TraceMetrics::record(sim::Time time, const Packet& packet, bool to_server,
                          bool first) const {
  packets.inc();
  wire_bytes.inc(packet.wire_size());
  payload_bytes.inc(packet.payload.size());
  (to_server ? c2s : s2c).inc();
  if (packet.tcp.has(flag::kSyn) && !packet.tcp.has(flag::kAck)) syns.inc();
  if (first) first_packet.set(time);
  last_packet.set(time);
}

TraceSummary summary_from_metrics(const obs::Registry& registry) {
  TraceSummary s;
  s.packets = registry.counter_value(metric::kTracePackets);
  s.wire_bytes = registry.counter_value(metric::kTraceWireBytes);
  s.payload_bytes = registry.counter_value(metric::kTracePayloadBytes);
  s.packets_client_to_server = registry.counter_value(metric::kTracePacketsC2s);
  s.packets_server_to_client = registry.counter_value(metric::kTracePacketsS2c);
  s.first_packet = registry.gauge_value(metric::kTraceFirstPacketNs);
  s.last_packet = registry.gauge_value(metric::kTraceLastPacketNs);
  fill_ratios(s);
  return s;
}

namespace {
TraceRecord make_record(sim::Time time, const Packet& packet) {
  TraceRecord r;
  r.time = time;
  r.src = packet.src;
  r.dst = packet.dst;
  r.src_port = packet.tcp.src_port;
  r.dst_port = packet.tcp.dst_port;
  r.flags = packet.tcp.flags;
  r.seq = packet.tcp.seq;
  r.ack = packet.tcp.ack;
  r.payload_bytes = static_cast<std::uint32_t>(packet.payload.size());
  return r;
}
}  // namespace

void PacketTrace::record(sim::Time time, const Packet& packet) {
  metrics_.record(time, packet, /*to_server=*/packet.src == client_addr_,
                  /*first=*/records_.empty());
  records_.push_back(make_record(time, packet));
}

void PacketTrace::record_hop(sim::Time time, const Packet& packet,
                             std::int32_t router, std::uint32_t queue_depth) {
  TraceRecord r = make_record(time, packet);
  r.hop_router = router;
  r.hop_queue_depth = queue_depth;
  records_.push_back(r);
}

TraceSummary PacketTrace::summarize() const {
  return summarize_records(records_, client_addr_);
}

TraceSummary summarize_records(const std::vector<TraceRecord>& records,
                               IpAddr client_addr) {
  TraceSummary s;
  if (records.empty()) return s;
  s.first_packet = records.front().time;
  s.last_packet = records.back().time;
  for (const TraceRecord& r : records) {
    ++s.packets;
    s.wire_bytes += r.wire_size();
    s.payload_bytes += r.payload_bytes;
    if (r.src == client_addr) {
      ++s.packets_client_to_server;
    } else {
      ++s.packets_server_to_client;
    }
    s.first_packet = std::min(s.first_packet, r.time);
    s.last_packet = std::max(s.last_packet, r.time);
  }
  fill_ratios(s);
  return s;
}

void TraceSummarizer::record(sim::Time time, const Packet& packet) {
  metrics_.record(time, packet, /*to_server=*/packet.dst == server_addr_,
                  /*first=*/!seen_packet_);
  seen_packet_ = true;
}

namespace {
using ConnKey = std::tuple<IpAddr, Port, IpAddr, Port>;

ConnKey canonical_key(const TraceRecord& r) {
  // Order the two endpoints so both directions map to the same connection.
  if (std::tie(r.src, r.src_port) < std::tie(r.dst, r.dst_port)) {
    return {r.src, r.src_port, r.dst, r.dst_port};
  }
  return {r.dst, r.dst_port, r.src, r.src_port};
}
}  // namespace

std::vector<std::size_t> PacketTrace::packet_trains() const {
  std::map<ConnKey, std::size_t> index;  // connection -> slot in result
  std::vector<std::size_t> trains;
  for (const TraceRecord& r : records_) {
    const ConnKey key = canonical_key(r);
    auto it = index.find(key);
    // A client SYN (without ACK) starts a fresh train even if the 4-tuple was
    // seen before (port reuse).
    const bool is_initial_syn =
        (r.flags & flag::kSyn) != 0 && (r.flags & flag::kAck) == 0;
    if (it == index.end() || is_initial_syn) {
      trains.push_back(0);
      index[key] = trains.size() - 1;
      it = index.find(key);
    }
    ++trains[it->second];
  }
  return trains;
}

double PacketTrace::mean_packet_train_length() const {
  const std::vector<std::size_t> trains = packet_trains();
  if (trains.empty()) return 0.0;
  std::size_t total = 0;
  for (std::size_t t : trains) total += t;
  return static_cast<double>(total) / static_cast<double>(trains.size());
}

std::size_t PacketTrace::connection_count() const {
  std::size_t n = 0;
  for (const TraceRecord& r : records_) {
    if ((r.flags & flag::kSyn) != 0 && (r.flags & flag::kAck) == 0) ++n;
  }
  return n;
}

std::string PacketTrace::to_text(std::size_t max_lines) const {
  std::string out;
  char line[160];
  std::size_t n = 0;
  for (const TraceRecord& r : records_) {
    if (max_lines != 0 && n >= max_lines) {
      out += "...\n";
      break;
    }
    std::snprintf(line, sizeof line,
                  "%10.6f  %u:%u > %u:%u  %-4s seq=%u ack=%u len=%u\n",
                  sim::to_seconds(r.time), r.src, r.src_port, r.dst, r.dst_port,
                  flags_to_string(r.flags).c_str(), r.seq, r.ack,
                  r.payload_bytes);
    out += line;
    ++n;
  }
  return out;
}

std::size_t PacketTrace::retransmitted_data_packets() const {
  std::map<std::tuple<IpAddr, Port, IpAddr, Port, std::uint32_t>, int> seen;
  std::size_t retransmits = 0;
  for (const TraceRecord& r : records_) {
    if (r.payload_bytes == 0) continue;
    const auto key =
        std::make_tuple(r.src, r.src_port, r.dst, r.dst_port, r.seq);
    if (seen[key]++ > 0) ++retransmits;
  }
  return retransmits;
}

std::vector<std::uint64_t> PacketTrace::throughput_series(
    bool client_to_server, sim::Time bucket) const {
  std::vector<std::uint64_t> series;
  if (bucket <= 0) return series;
  for (const TraceRecord& r : records_) {
    const bool from_client = r.src == client_addr_;
    if (from_client != client_to_server) continue;
    const std::size_t index = static_cast<std::size_t>(r.time / bucket);
    if (series.size() <= index) series.resize(index + 1, 0);
    series[index] += r.wire_size();
  }
  return series;
}

sim::Time PacketTrace::longest_quiet_gap() const {
  sim::Time longest = 0;
  for (std::size_t i = 1; i < records_.size(); ++i) {
    longest = std::max(longest, records_[i].time - records_[i - 1].time);
  }
  return longest;
}

std::string PacketTrace::to_time_sequence(bool client_to_server) const {
  std::string out;
  char line[64];
  for (const TraceRecord& r : records_) {
    const bool from_client = r.src == client_addr_;
    if (from_client != client_to_server) continue;
    if (r.payload_bytes == 0) continue;
    std::snprintf(line, sizeof line, "%.6f %u\n", sim::to_seconds(r.time),
                  r.seq + r.payload_bytes);
    out += line;
  }
  return out;
}

}  // namespace hsim::net
