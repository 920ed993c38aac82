// A TCP endpoint host: owns connections, demultiplexes arriving segments by
// 4-tuple, manages listeners and ephemeral ports, and answers segments for
// unknown connections with RST (which is how the paper's pipelining
// connection-management pitfall manifests).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/channel.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "tcp/connection.hpp"

namespace hsim::tcp {

/// Passive-open tunables for one listening port.
struct ListenConfig {
  /// Maximum connections simultaneously in the embryonic (handshake not yet
  /// complete) state. A SYN arriving while the backlog is full is dropped
  /// *silently* — no RST — so the client's SYN retransmission backoff drives
  /// the retry, exactly as a kernel SYN queue overflow behaves. 0 = unlimited.
  std::size_t backlog = 0;
};

/// Per-listener accounting; survives for the lifetime of the listener.
struct ListenerStats {
  std::uint64_t syns_received = 0;  // initial SYNs reaching this port
  std::uint64_t syns_dropped = 0;   // silently discarded (backlog full)
  std::uint64_t accepted = 0;       // handshakes completed
  /// High-water mark of simultaneously embryonic handshakes. Unlike the live
  /// `Listener::embryonic` level (which has returned to zero by the time a run
  /// finishes), the peak is aggregatable across listeners and runs; it is also
  /// published as the peak of the `tcp.listener.embryonic` registry gauge.
  std::uint64_t embryonic_peak = 0;
};

class Host : public net::PacketSink {
 public:
  using AcceptCallback = std::function<void(ConnectionPtr)>;

  Host(sim::EventQueue& queue, net::IpAddr addr, std::string name,
       sim::Rng rng);
  /// Flushes the forensics of connections still open, while the handles
  /// they share are alive.
  ~Host() override;
  Host(const Host&) = delete;  // connections and links hold its address
  Host& operator=(const Host&) = delete;

  /// Wires this host's transmissions onto `uplink`.
  void attach_uplink(net::Link* uplink) { uplink_ = uplink; }

  /// Active open toward (peer, port). The returned connection is in SYN_SENT;
  /// on_connected fires when the handshake completes.
  ConnectionPtr connect(net::IpAddr peer, net::Port port, TcpOptions options);

  /// Passive open: accept connections on `port`. `on_accept` fires with the
  /// new connection as soon as the three-way handshake completes.
  void listen(net::Port port, AcceptCallback on_accept, TcpOptions options,
              ListenConfig listen_config = {});
  void stop_listening(net::Port port);

  /// Accounting for the listener on `port`, or nullptr if none.
  const ListenerStats* listener_stats(net::Port port) const;

  // PacketSink: a segment arrived from the wire.
  void deliver(net::Packet packet) override;

  // ---- Connection plumbing (used by tcp::Connection) ----
  void transmit(net::Packet packet);
  /// Removes the connection from the demux table, returning the owning
  /// reference so the caller can keep the object alive through a final
  /// callback.
  ConnectionPtr remove_connection(const Connection::Key& key);
  /// tcp.* handles, bound under the registry installed when this host was
  /// built; every connection on the host holds a reference to them.
  const Connection::Metrics& connection_metrics() const {
    return connection_metrics_;
  }
  sim::EventQueue& event_queue() { return queue_; }
  sim::Rng& rng() { return rng_; }

  net::IpAddr addr() const { return addr_; }
  const std::string& name() const { return name_; }
  std::size_t open_connections() const { return connections_.size(); }
  /// Total connections ever created on this host (≈ "sockets used").
  std::uint64_t total_connections_created() const { return total_created_; }
  /// Highest simultaneously-open connection count observed.
  std::size_t max_simultaneous_connections() const { return max_open_; }
  void reset_connection_counters();

 private:
  struct Listener {
    AcceptCallback on_accept;
    TcpOptions options;
    ListenConfig config;
    ListenerStats stats;
    std::size_t embryonic = 0;  // handshakes in flight against the backlog
  };

  void send_rst_for(const net::Packet& packet);
  net::Port allocate_ephemeral_port();

  sim::EventQueue& queue_;
  net::IpAddr addr_;
  std::string name_;
  sim::Rng rng_;
  net::Link* uplink_ = nullptr;
  // Declared before connections_, so it outlives them on destruction.
  Connection::Metrics connection_metrics_ = Connection::Metrics::bind();
  std::map<Connection::Key, ConnectionPtr> connections_;
  std::map<net::Port, Listener> listeners_;
  /// Connections still in the handshake, charged against their listener's
  /// backlog: key -> listening port. Entries leave on accept or teardown.
  std::map<Connection::Key, net::Port> embryonic_;
  net::Port next_ephemeral_ = 10000;
  std::uint64_t total_created_ = 0;
  std::size_t max_open_ = 0;

  /// Aggregate listener metrics, summed over every listener on every host.
  struct Metrics {
    obs::CounterHandle syns_received, syns_dropped, accepted;
    obs::GaugeHandle embryonic;
    static Metrics bind();
  };
  Metrics metrics_ = Metrics::bind();
};

}  // namespace hsim::tcp
