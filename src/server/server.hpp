// The HTTP server: accepts connections on a tcp::Host, parses possibly
// pipelined requests, serves the static site with correct HTTP/1.0 and 1.1
// semantics (persistent connections, conditional GET, HEAD, byte ranges,
// content coding), and buffers responses with flush-on-idle. Every server
// also accepts h2 connections (recognised by the client preface) and pushes
// a page's embedded images to h2 clients that advertise ENABLE_PUSH.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>

#include "h2/session.hpp"
#include "http/message.hpp"
#include "http/parser.hpp"
#include "obs/metrics.hpp"
#include "server/config.hpp"
#include "server/static_site.hpp"
#include "sim/random.hpp"
#include "tcp/host.hpp"

namespace hsim::server {

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t responses_200 = 0;
  std::uint64_t responses_206 = 0;
  std::uint64_t responses_304 = 0;
  std::uint64_t responses_404 = 0;
  std::uint64_t responses_5xx = 0;  // injected server errors
  std::uint64_t deflated_responses = 0;
  std::uint64_t output_flushes_full = 0;  // buffer reached capacity
  std::uint64_t output_flushes_idle = 0;  // flushed because queue went idle
  std::uint64_t connections_closed_by_limit = 0;
  std::uint64_t stalls_injected = 0;           // fault: connection went silent
  std::uint64_t premature_closes_injected = 0;  // fault: closed mid-response
  // ---- Admission control --------------------------------------------------
  std::uint64_t connections_rejected = 0;  // answered 503 and closed
  std::uint64_t connections_queued = 0;    // parked awaiting an active slot
  std::uint64_t max_admission_queue = 0;   // high-water mark of the queue
  std::uint64_t max_active_connections = 0;  // high-water mark of served conns
  // ---- HTTP/2-style framing ----------------------------------------------
  std::uint64_t h2_connections = 0;  // connections classified by preface
  std::uint64_t h2_pushes = 0;       // resources pushed (not requests_served)
  std::uint64_t h2_conn_errors = 0;  // framing violations answered by GOAWAY
};

class HttpServer {
 public:
  HttpServer(tcp::Host& host, StaticSite site, ServerConfig config,
             sim::Rng rng);

  /// Begins accepting connections on `port`.
  void start(net::Port port = 80);

  const ServerStats& stats() const { return stats_; }

  /// Mutable access to the served site (e.g. revising resources between a
  /// first visit and a revalidation, to exercise range validation).
  StaticSite& site() { return site_; }

 private:
  struct ConnState {
    tcp::ConnectionPtr conn;
    http::RequestParser parser;
    std::deque<http::Request> pending;
    bool processing = false;  // a CPU-delay timer is outstanding
    buf::Chain out_buffer;  // application-level batching (shared body slices)
    buf::Chain out_unsent;  // overflow past the TCP buffer
    unsigned served = 0;
    bool closing = false;
    std::unique_ptr<sim::Timer> idle_timer;
    // Fault-injection bookkeeping.
    std::size_t wire_bytes_pushed = 0;  // bytes handed to the TCP connection
    bool fault_eligible = false;        // stall/close faults apply here
    bool stalled = false;               // the stall fault has triggered
    // Admission control: false while parked in the accept queue. Unadmitted
    // connections are never read from or served.
    bool admitted = false;
    // ---- HTTP/2-style framing ---------------------------------------------
    // Non-null once the connection's first bytes matched the h2 preface;
    // from then on all input feeds the session and the HTTP/1.x parser is
    // never touched.
    std::unique_ptr<h2::Session> h2;
    // True once the first bytes diverged from the preface (HTTP/1.x).
    bool h1_classified = false;
    // Bytes accumulated before classification resolves.
    buf::Chain preface_buf;
    // Complete h2 requests awaiting the single CPU, keyed by stream.
    std::deque<std::pair<std::uint32_t, http::Request>> h2_pending;
    // Guards the close handshake against re-entry via the GOAWAY pump.
    bool close_begun = false;
  };
  using ConnStatePtr = std::shared_ptr<ConnState>;

  void on_accept(tcp::ConnectionPtr conn);
  void admit(const ConnStatePtr& state);
  void admit_from_queue();
  void release_slot(const ConnStatePtr& state);
  void reject_with_503(tcp::ConnectionPtr conn);
  void on_data(const ConnStatePtr& state);
  void start_h2(const ConnStatePtr& state);
  void process_next(const ConnStatePtr& state);
  void finish_request(const ConnStatePtr& state, const http::Request& request);
  void finish_request_h2(const ConnStatePtr& state, std::uint32_t stream_id,
                         const http::Request& request);
  http::Response build_response(const http::Request& request);
  void count_response_status(const http::Response& response);
  void enqueue_response(const ConnStatePtr& state,
                        const http::Response& response);
  void flush_output(const ConnStatePtr& state, bool idle_flush);
  void pump_unsent(const ConnStatePtr& state);
  void inject_premature_close(const ConnStatePtr& state);
  void begin_close(const ConnStatePtr& state);
  void arm_idle_timer(const ConnStatePtr& state);

  tcp::Host& host_;
  StaticSite site_;
  ServerConfig config_;
  sim::Rng rng_;
  ServerStats stats_;
  /// Single-CPU model: request processing serializes across ALL connections
  /// (a 1997 server did not process four parallel connections' requests
  /// concurrently). Time before which the CPU is busy.
  sim::Time cpu_free_at_ = 0;
  std::map<const tcp::Connection*, ConnStatePtr> connections_;
  /// Connections accepted past max_concurrent_connections under kQueue,
  /// waiting (established, unserved) for an active slot. Weak: a queued
  /// client that gives up disappears without ceremony.
  std::deque<std::weak_ptr<ConnState>> admission_queue_;
  /// Admitted connections the worker is still serving. The slot frees when
  /// the server closes its half (like a worker calling close()); the TCP
  /// machinery finishes FIN/TIME_WAIT in the background without holding it.
  std::size_t active_connections_ = 0;

  /// server.* registry metrics. The two gauges mirror admission_queue_ depth
  /// and active_connections_, so their peaks survive into the run's snapshot.
  struct Metrics {
    obs::CounterHandle accepted, requests_served, rejected, queued;
    obs::GaugeHandle admission_queue_depth, active_connections;
    static Metrics bind();
  };
  Metrics metrics_ = Metrics::bind();
};

}  // namespace hsim::server
