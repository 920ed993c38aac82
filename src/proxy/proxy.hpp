// HTTP proxies, built to demonstrate why HTTP/1.1's persistent-connection
// signalling differs from HTTP/1.0 Keep-Alive.
//
// The paper: "The 'Keep-Alive' extension to HTTP/1.0 is a form of persistent
// connections. HTTP/1.1's design differs in minor details from Keep-Alive to
// overcome a problem discovered when Keep-Alive is used with more than one
// proxy between a client and a server."
//
// The problem: a pre-Keep-Alive proxy relays bytes blindly. If it forwards a
// client's "Connection: Keep-Alive" hop-by-hop header to the origin, the
// origin holds its connection open waiting for more requests, while the
// proxy — which frames the upstream response by connection close — waits for
// the origin to close. Both sides hang until a timeout, tying up sockets
// (and with close-framed bodies, the client never learns the response ended).
//
// Two proxies are provided:
//   - TunnelProxy: the blind byte shoveler, with an optional
//     `strip_connection_headers` mitigation (a minimally header-aware relay);
//   - HttpProxy: a message-aware HTTP/1.0-style proxy that parses requests
//     and responses, removes hop-by-hop headers, and frames bodies properly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "http/parser.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "tcp/host.hpp"

namespace hsim::proxy {

struct ProxyStats {
  std::uint64_t client_connections = 0;
  std::uint64_t upstream_connections = 0;
  std::uint64_t bytes_relayed_up = 0;
  std::uint64_t bytes_relayed_down = 0;
  std::uint64_t requests_forwarded = 0;   // HttpProxy only
  std::uint64_t responses_forwarded = 0;  // HttpProxy only
  std::uint64_t keep_alive_headers_stripped = 0;
  std::uint64_t idle_hangups = 0;  // connections reaped by the idle timer

  // Caching proxy counters.
  std::uint64_t cache_fresh_hits = 0;        // served without contacting origin
  std::uint64_t cache_revalidated_hits = 0;  // origin said 304, body from cache
  std::uint64_t cache_misses = 0;            // full fetch from origin
  std::uint64_t cache_stores = 0;
  std::uint64_t upstream_body_bytes = 0;     // entity bytes fetched upstream

  // Circuit breaker counters (HttpProxy only; zero when disabled).
  std::uint64_t breaker_trips = 0;       // closed/half-open -> open
  std::uint64_t breaker_rejections = 0;  // requests answered 503 locally
  std::uint64_t breaker_probes = 0;      // half-open trial requests
};

/// proxy.* registry metrics, shared by TunnelProxy and HttpProxy (all-null
/// handles when no registry is installed).
struct ProxyMetrics {
  obs::CounterHandle client_connections, upstream_connections, bytes_up,
      bytes_down, requests_forwarded, cache_fresh_hits, cache_revalidated_hits,
      cache_misses, cache_stores, upstream_body_bytes, idle_hangups,
      breaker_trips, breaker_rejections, breaker_probes;
  static ProxyMetrics bind();
};

/// Consecutive-failure circuit breaker for HttpProxy's upstream fetches.
/// Closed: requests flow, counting consecutive failures (reset or 5xx).
/// Open (after failure_threshold in a row): requests are answered locally
/// with `503 Retry-After`, shielding a struggling origin from the retry
/// storm. After open_duration one half-open probe is let through; success
/// closes the breaker, failure reopens it for another open_duration.
struct CircuitBreakerConfig {
  bool enabled = false;
  unsigned failure_threshold = 3;
  sim::Time open_duration = sim::seconds(5);
  /// Retry-After hint attached to breaker 503s (0 = no header).
  sim::Time retry_after = sim::seconds(5);
};

struct TunnelProxyConfig {
  net::IpAddr origin_addr = 0;
  net::Port origin_port = 80;
  /// Mitigation: detect and remove "Connection:" header lines from relayed
  /// request heads instead of forwarding them blindly.
  bool strip_connection_headers = false;
  /// Hung relays are reaped after this long (the only defence a blind proxy
  /// has against the Keep-Alive deadlock).
  sim::Time idle_timeout = sim::seconds(120);
  tcp::TcpOptions tcp;
};

/// The blind relay: one upstream connection per client connection, bytes
/// shovelled in both directions, each side's close propagated to the other.
class TunnelProxy {
 public:
  TunnelProxy(tcp::Host& host, TunnelProxyConfig config);

  void start(net::Port port = 8080);

  const ProxyStats& stats() const { return stats_; }

 private:
  struct Relay {
    tcp::ConnectionPtr client;
    tcp::ConnectionPtr upstream;
    bool upstream_connected = false;
    buf::Chain pending_up;  // buffered until upstream opens (shared slices)
    /// Set when the head of the current request has been scanned for
    /// Connection headers (stripping applies to heads only).
    bool head_scanned = false;
    std::unique_ptr<sim::Timer> idle_timer;
  };
  using RelayPtr = std::shared_ptr<Relay>;

  void on_client(tcp::ConnectionPtr conn);
  void relay_up(const RelayPtr& relay);
  void relay_down(const RelayPtr& relay);
  buf::Chain filter_request_bytes(const RelayPtr& relay, buf::Chain bytes);
  void arm_idle(const RelayPtr& relay);

  tcp::Host& host_;
  TunnelProxyConfig config_;
  ProxyStats stats_;
  ProxyMetrics metrics_ = ProxyMetrics::bind();
  std::map<const tcp::Connection*, RelayPtr> relays_;
};

struct HttpProxyConfig {
  net::IpAddr origin_addr = 0;
  net::Port origin_port = 80;
  /// Forwarded via one fresh upstream connection per request (HTTP/1.0
  /// proxy behaviour, which is what 1997 deployments did).
  sim::Time idle_timeout = sim::seconds(60);
  sim::Time per_request_cpu = sim::milliseconds(1);
  tcp::TcpOptions tcp;

  /// Caching proxy mode (paper's conclusion: HTTP/1.1's cheap revalidation
  /// "may find it feasible to perform much more extensive cache
  /// validation"). Cached 200 responses are served locally while fresh;
  /// stale entries are revalidated upstream with If-None-Match and served
  /// from cache on a 304.
  bool enable_cache = false;
  /// How long an entry is served without revalidation (0 = always
  /// revalidate — the "extensive validation" regime).
  sim::Time cache_fresh_ttl = 0;

  /// Upstream circuit breaker (disabled by default).
  CircuitBreakerConfig breaker;
};

/// Message-aware HTTP/1.0 proxy: parses requests and responses, strips
/// hop-by-hop Connection headers (and any header Connection names), adds a
/// Via header, and frames everything with Content-Length — immune to the
/// Keep-Alive trap by construction.
class HttpProxy {
 public:
  HttpProxy(tcp::Host& host, HttpProxyConfig config);

  void start(net::Port port = 8080);

  const ProxyStats& stats() const { return stats_; }

 private:
  struct ClientConn {
    tcp::ConnectionPtr conn;
    http::RequestParser parser;
    std::deque<http::Request> pending;
    bool forwarding = false;
    std::unique_ptr<sim::Timer> idle_timer;
  };
  using ClientConnPtr = std::shared_ptr<ClientConn>;

  struct CacheEntry {
    http::Response response;  // status 200, headers + body as received
    std::string etag;
    sim::Time stored_at = 0;
  };

  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  void on_client(tcp::ConnectionPtr conn);
  void pump(const ClientConnPtr& state);
  void forward(const ClientConnPtr& state, http::Request request);
  void respond(const ClientConnPtr& state, http::Response response);
  /// Cache lookup path; returns true if the request was fully handled.
  bool try_cache(const ClientConnPtr& state, const http::Request& request);
  void store_in_cache(const std::string& target,
                      const http::Response& response);
  static void strip_hop_by_hop(http::Headers& headers,
                               ProxyStats& stats);

  /// May this request go upstream now? Advances open -> half-open on the
  /// clock and claims the half-open probe slot.
  bool breaker_allows();
  /// Feed the breaker an upstream outcome (reset/5xx = failure).
  void breaker_record(bool success);
  /// Locally-built `503 Retry-After` for a rejected request.
  void reject_open_circuit(const ClientConnPtr& state,
                           const http::Request& request);

  tcp::Host& host_;
  HttpProxyConfig config_;
  ProxyStats stats_;
  ProxyMetrics metrics_ = ProxyMetrics::bind();
  std::map<const tcp::Connection*, ClientConnPtr> clients_;
  std::map<std::string, CacheEntry> cache_;

  BreakerState breaker_state_ = BreakerState::kClosed;
  unsigned breaker_failures_ = 0;  // consecutive upstream failures
  sim::Time breaker_opened_at_ = 0;
  bool breaker_probe_in_flight_ = false;
};

}  // namespace hsim::proxy
