#include "tcp/host.hpp"

#include <utility>

namespace hsim::tcp {

Host::Host(sim::EventQueue& queue, net::IpAddr addr, std::string name,
           sim::Rng rng)
    : queue_(queue), addr_(addr), name_(std::move(name)), rng_(rng) {}

Host::~Host() {
  // A connection can outlive its host (an application or a pending event
  // may still hold it); its last flush must not reach freed handles.
  // Closed connections flushed on their way out of connections_.
  for (const auto& [key, conn] : connections_) conn->flush_forensics();
}

Host::Metrics Host::Metrics::bind() {
  Metrics m;
  if (obs::registry() == nullptr) return m;
  m.syns_received = obs::counter_handle("tcp.listener.syns_received");
  m.syns_dropped = obs::counter_handle("tcp.listener.syns_dropped");
  m.accepted = obs::counter_handle("tcp.listener.accepted");
  m.embryonic = obs::gauge_handle("tcp.listener.embryonic");
  return m;
}

ConnectionPtr Host::connect(net::IpAddr peer, net::Port port,
                            TcpOptions options) {
  Connection::Key key;
  key.peer_addr = peer;
  key.peer_port = port;
  key.local_port = allocate_ephemeral_port();
  auto conn = std::make_shared<Connection>(*this, key, options);
  connections_[key] = conn;
  ++total_created_;
  max_open_ = std::max(max_open_, connections_.size());
  conn->start_connect();
  return conn;
}

void Host::listen(net::Port port, AcceptCallback on_accept, TcpOptions options,
                  ListenConfig listen_config) {
  listeners_[port] = Listener{std::move(on_accept), options, listen_config,
                              ListenerStats{}, 0};
}

void Host::stop_listening(net::Port port) { listeners_.erase(port); }

const ListenerStats* Host::listener_stats(net::Port port) const {
  auto it = listeners_.find(port);
  return it == listeners_.end() ? nullptr : &it->second.stats;
}

void Host::deliver(net::Packet packet) {
  Connection::Key key;
  key.peer_addr = packet.src;
  key.peer_port = packet.tcp.src_port;
  key.local_port = packet.tcp.dst_port;

  if (auto it = connections_.find(key); it != connections_.end()) {
    // Hold a reference: processing may remove the connection from the table.
    ConnectionPtr conn = it->second;
    conn->segment_arrived(packet);
    return;
  }

  // No connection. A SYN may create one if someone is listening.
  const bool initial_syn = packet.tcp.has(net::flag::kSyn) &&
                           !packet.tcp.has(net::flag::kAck);
  if (initial_syn) {
    if (auto lit = listeners_.find(key.local_port); lit != listeners_.end()) {
      Listener& listener = lit->second;
      ++listener.stats.syns_received;
      metrics_.syns_received.inc();
      if (listener.config.backlog != 0 &&
          listener.embryonic >= listener.config.backlog) {
        // SYN queue overflow: drop silently (no RST). The client's SYN
        // retransmission timer is what retries — a fresh SYN will arrive
        // here again and be re-admitted once the backlog drains.
        ++listener.stats.syns_dropped;
        metrics_.syns_dropped.inc();
        return;
      }
      auto conn = std::make_shared<Connection>(*this, key, listener.options);
      connections_[key] = conn;
      ++total_created_;
      max_open_ = std::max(max_open_, connections_.size());
      ++listener.embryonic;
      listener.stats.embryonic_peak = std::max<std::uint64_t>(
          listener.stats.embryonic_peak, listener.embryonic);
      metrics_.embryonic.add(1);
      embryonic_[key] = key.local_port;
      // Look the listener up again at handshake-completion time: it may have
      // been removed (stop_listening) while the handshake was in flight.
      const net::Port port = key.local_port;
      conn->set_on_connected([this, port, weak = std::weak_ptr(conn)] {
        ConnectionPtr c = weak.lock();
        if (!c) return;
        // Handshake complete: the connection leaves the backlog.
        if (auto emb = embryonic_.find(c->key()); emb != embryonic_.end()) {
          embryonic_.erase(emb);
          metrics_.embryonic.sub(1);
          if (auto found = listeners_.find(port); found != listeners_.end()) {
            --found->second.embryonic;
            ++found->second.stats.accepted;
            metrics_.accepted.inc();
          }
        }
        if (auto found = listeners_.find(port); found != listeners_.end() &&
                                                found->second.on_accept) {
          found->second.on_accept(c);
        }
      });
      conn->start_accept(packet);
      return;
    }
  }

  // Segment for a closed/unknown port: answer with RST (unless it is itself
  // an RST). This is the mechanism behind the paper's pipelining pitfall —
  // requests arriving after a server closed its connection draw resets.
  if (!packet.tcp.has(net::flag::kRst)) send_rst_for(packet);
}

void Host::send_rst_for(const net::Packet& packet) {
  net::Packet rst;
  rst.src = addr_;
  rst.dst = packet.src;
  rst.tcp.src_port = packet.tcp.dst_port;
  rst.tcp.dst_port = packet.tcp.src_port;
  rst.tcp.flags = net::flag::kRst;
  if (packet.tcp.has(net::flag::kAck)) {
    rst.tcp.seq = packet.tcp.ack;
  } else {
    rst.tcp.flags |= net::flag::kAck;
    rst.tcp.ack = packet.tcp.seq + static_cast<std::uint32_t>(
                                       packet.payload.size()) +
                  (packet.tcp.has(net::flag::kSyn) ? 1 : 0) +
                  (packet.tcp.has(net::flag::kFin) ? 1 : 0);
  }
  transmit(std::move(rst));
}

void Host::transmit(net::Packet packet) {
  if (uplink_ != nullptr) uplink_->transmit(std::move(packet));
}

ConnectionPtr Host::remove_connection(const Connection::Key& key) {
  auto it = connections_.find(key);
  if (it == connections_.end()) return nullptr;
  ConnectionPtr conn = std::move(it->second);
  connections_.erase(it);
  // A connection torn down before completing its handshake (RST, retry
  // exhaustion, stop_listening) releases its backlog slot here.
  if (auto emb = embryonic_.find(key); emb != embryonic_.end()) {
    if (auto lit = listeners_.find(emb->second); lit != listeners_.end() &&
                                                 lit->second.embryonic > 0) {
      --lit->second.embryonic;
    }
    metrics_.embryonic.sub(1);
    embryonic_.erase(emb);
  }
  return conn;
}

net::Port Host::allocate_ephemeral_port() { return next_ephemeral_++; }

void Host::reset_connection_counters() {
  total_created_ = 0;
  max_open_ = connections_.size();
}

}  // namespace hsim::tcp
