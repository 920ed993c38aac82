// HTTP server behavioural profiles.
//
// Jigsaw 1.06 (interpreted Java) and Apache 1.2b10 (C) differ mainly in
// per-request CPU cost and in output buffering maturity; Apache 1.2b2 adds
// the "at most five requests per connection" behaviour whose interaction
// with pipelining the paper diagnoses.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "tcp/options.hpp"

namespace hsim::server {

enum class CloseStyle {
  kGraceful,  // close each half independently (paper's recommendation)
  kNaive,     // close both directions at once (draws RSTs under pipelining)
};

/// What happens to a connection accepted while the server is already at
/// max_concurrent_connections.
enum class AdmissionPolicy {
  /// Hold the connection (established but unserved) until an active slot
  /// frees up — the classic accept-queue model. Requests sit in the TCP
  /// receive buffer meanwhile.
  kQueue,
  /// Immediately answer "503 Service Unavailable" and close. Load is shed
  /// at the application layer instead of parking clients.
  kReject503,
};

/// Injectable server misbehaviours (all off by default). These model the
/// failure modes real HTTP studies keep running into: wedged worker
/// processes, servers that die mid-response, and transient 5xx storms.
struct ServerFaults {
  /// After pushing this many wire bytes on a connection, stop writing and go
  /// silent: the connection stays open but nothing further is sent (a wedged
  /// worker). 0 = off. Only a client deadline gets out of this.
  std::size_t stall_after_bytes = 0;

  /// After pushing this many wire bytes on a connection, discard everything
  /// still buffered and close it (per close_style) — a premature close mid-
  /// response. 0 = off.
  std::size_t premature_close_after_bytes = 0;

  /// Restrict the stall / premature-close faults to the first N accepted
  /// connections (0 = every connection). Letting later connections through
  /// is what makes client-side recovery observable end to end.
  unsigned faulty_connection_limit = 0;

  /// Per-request probability of answering "500 Internal Server Error"
  /// instead of serving the resource.
  double error_probability = 0.0;
};

struct ServerConfig {
  std::string server_name = "Jigsaw/1.06";

  /// CPU time consumed per request before the response is generated.
  sim::Time per_request_cpu = sim::milliseconds(4);
  /// CPU cost of accepting and tearing down a TCP connection (fork/accept/
  /// close path). This is a large part of why HTTP/1.0's one-connection-per-
  /// object model loses on elapsed time even on a LAN.
  sim::Time per_connection_cpu = sim::milliseconds(3);
  /// Response output buffer: flushed when full, or when the connection has
  /// no further pipelined requests pending ("before it goes idle").
  std::size_t output_buffer = 8192;

  /// Close the connection after serving this many requests (0 = unlimited).
  /// Apache 1.2b2 shipped with 5, which truncates pipelined bursts.
  unsigned max_requests_per_connection = 0;

  /// How the connection is closed (see the paper's Connection Management
  /// section).
  CloseStyle close_style = CloseStyle::kGraceful;

  /// Disable Nagle on accepted connections (recommended for buffered
  /// HTTP/1.1 implementations).
  bool nodelay = true;

  /// Honour HTTP/1.0 "Connection: Keep-Alive".
  bool keep_alive = true;

  /// Close connections idle longer than this (0 = never).
  sim::Time idle_timeout = sim::seconds(30);

  // ---- Scale / admission control -----------------------------------------
  /// TCP-level SYN/accept backlog handed to tcp::Host::listen. SYNs past it
  /// are dropped silently (clients recover via SYN retransmission). 0 =
  /// unlimited, the pre-scale behaviour.
  std::size_t listen_backlog = 0;

  /// Connections concurrently *served* (admitted past the accept queue).
  /// 0 = unlimited. Overload handling follows admission_policy.
  std::size_t max_concurrent_connections = 0;

  /// Policy for connections beyond max_concurrent_connections.
  AdmissionPolicy admission_policy = AdmissionPolicy::kQueue;

  /// When rejecting with 503, advertise this back-off hint in a Retry-After
  /// header (whole seconds; 0 = no header, the legacy byte-exact framing).
  /// Clients that honor it spread their re-issues instead of stampeding the
  /// instant a slot frees.
  sim::Time overload_retry_after = 0;

  /// Extra response headers (header verbosity differs across servers; this
  /// affects the byte counts in the tables).
  bool verbose_headers = false;

  /// Fault injection (chaos testing); see ServerFaults.
  ServerFaults faults;

  tcp::TcpOptions tcp;
};

/// Jigsaw 1.06: interpreted Java, slower per request.
ServerConfig jigsaw_config();

/// Apache 1.2b10: fast C server, tuned output buffering.
ServerConfig apache_config();

/// Apache 1.2b2: the beta the paper first tested — closes after 5 requests
/// and buffers output less effectively.
ServerConfig apache_beta2_config();

}  // namespace hsim::server
