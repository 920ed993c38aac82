#include "server/server.hpp"

#include <algorithm>
#include <charconv>

#include "http/date.hpp"

namespace hsim::server {

namespace {

/// Multiplicative jitter on the per-request CPU time (load / GC noise).
constexpr double kCpuJitter = 0.15;

/// Parses "bytes=a-b" (single range). Returns false if absent/malformed.
bool parse_byte_range(std::string_view value, std::size_t entity_size,
                      std::size_t& first, std::size_t& last) {
  if (!value.starts_with("bytes=")) return false;
  value.remove_prefix(6);
  const std::size_t dash = value.find('-');
  if (dash == std::string_view::npos) return false;
  const std::string_view a = value.substr(0, dash);
  const std::string_view b = value.substr(dash + 1);
  if (a.empty()) {
    // suffix range: last N bytes
    std::size_t n = 0;
    if (std::from_chars(b.data(), b.data() + b.size(), n).ec != std::errc()) {
      return false;
    }
    if (n == 0 || entity_size == 0) return false;
    first = n >= entity_size ? 0 : entity_size - n;
    last = entity_size - 1;
    return true;
  }
  if (std::from_chars(a.data(), a.data() + a.size(), first).ec !=
      std::errc()) {
    return false;
  }
  if (b.empty()) {
    last = entity_size == 0 ? 0 : entity_size - 1;
  } else if (std::from_chars(b.data(), b.data() + b.size(), last).ec !=
             std::errc()) {
    return false;
  }
  if (first > last || first >= entity_size) return false;
  last = std::min(last, entity_size - 1);
  return true;
}

}  // namespace

ServerConfig jigsaw_config() {
  ServerConfig c;
  c.server_name = "Jigsaw/1.06";
  c.per_request_cpu = sim::milliseconds(6);
  c.per_connection_cpu = sim::milliseconds(5);  // interpreted Java accept path
  c.output_buffer = 8192;
  c.verbose_headers = false;
  return c;
}

ServerConfig apache_config() {
  ServerConfig c;
  c.server_name = "Apache/1.2b10";
  c.per_request_cpu = sim::microseconds(1800);
  c.per_connection_cpu = sim::microseconds(2500);
  c.output_buffer = 8192;  // b10 adopted the tuned buffering
  c.verbose_headers = false;
  return c;
}

ServerConfig apache_beta2_config() {
  ServerConfig c = apache_config();
  c.server_name = "Apache/1.2b2";
  c.max_requests_per_connection = 5;
  c.close_style = CloseStyle::kNaive;
  c.output_buffer = 512;  // immature buffering in the first beta
  return c;
}

HttpServer::HttpServer(tcp::Host& host, StaticSite site, ServerConfig config,
                       sim::Rng rng)
    : host_(host),
      site_(std::move(site)),
      config_(std::move(config)),
      rng_(rng) {}

void HttpServer::start(net::Port port) {
  tcp::TcpOptions opts = config_.tcp;
  opts.nodelay = config_.nodelay;
  host_.listen(port, [this](tcp::ConnectionPtr c) { on_accept(std::move(c)); },
               opts, tcp::ListenConfig{config_.listen_backlog});
}

HttpServer::Metrics HttpServer::Metrics::bind() {
  Metrics m;
  if (obs::registry() == nullptr) return m;
  m.accepted = obs::counter_handle("server.connections_accepted");
  m.requests_served = obs::counter_handle("server.requests_served");
  m.rejected = obs::counter_handle("server.connections_rejected");
  m.queued = obs::counter_handle("server.connections_queued");
  m.admission_queue_depth = obs::gauge_handle("server.admission_queue_depth");
  m.active_connections = obs::gauge_handle("server.active_connections");
  return m;
}

void HttpServer::on_accept(tcp::ConnectionPtr conn) {
  ++stats_.connections_accepted;
  metrics_.accepted.inc();
  const bool at_capacity =
      config_.max_concurrent_connections != 0 &&
      active_connections_ >= config_.max_concurrent_connections;
  if (at_capacity && config_.admission_policy == AdmissionPolicy::kReject503) {
    reject_with_503(std::move(conn));
    return;
  }
  auto state = std::make_shared<ConnState>();
  state->conn = conn;
  state->idle_timer = std::make_unique<sim::Timer>(host_.event_queue());
  state->fault_eligible =
      config_.faults.faulty_connection_limit == 0 ||
      stats_.connections_accepted <= config_.faults.faulty_connection_limit;
  connections_[conn.get()] = state;

  std::weak_ptr<ConnState> weak = state;
  conn->set_on_data([this, weak] {
    if (auto s = weak.lock()) {
      // Queued connections are never read: their requests wait in the TCP
      // receive buffer until admission.
      if (s->admitted) on_data(s);
    }
  });
  conn->set_on_send_space([this, weak] {
    if (auto s = weak.lock()) pump_unsent(s);
  });
  conn->set_on_peer_fin([this, weak] {
    // The client finished sending; serve whatever is queued, then close our
    // half once the pipeline drains (handled in process_next).
    if (auto s = weak.lock()) {
      if (!s->processing && s->pending.empty() && s->h2_pending.empty()) {
        begin_close(s);
      }
    }
  });
  auto cleanup = [this, weak] {
    if (auto s = weak.lock()) {
      s->idle_timer->cancel();
      connections_.erase(s->conn.get());
      // Backstop for client-initiated teardown (reset, early FIN) where the
      // server never reached begin_close.
      release_slot(s);
    }
  };
  conn->set_on_closed(cleanup);
  conn->set_on_reset(cleanup);

  if (at_capacity) {
    // AdmissionPolicy::kQueue: park the established connection; no CPU is
    // spent and no idle timer runs until a serving slot frees up.
    ++stats_.connections_queued;
    metrics_.queued.inc();
    admission_queue_.push_back(weak);
    stats_.max_admission_queue =
        std::max<std::uint64_t>(stats_.max_admission_queue,
                                admission_queue_.size());
    metrics_.admission_queue_depth.set(
        static_cast<std::int64_t>(admission_queue_.size()));
    return;
  }
  admit(state);
}

void HttpServer::admit(const ConnStatePtr& state) {
  state->admitted = true;
  ++active_connections_;
  stats_.max_active_connections =
      std::max<std::uint64_t>(stats_.max_active_connections,
                              active_connections_);
  metrics_.active_connections.set(
      static_cast<std::int64_t>(active_connections_));
  // Connection setup consumes CPU on the (single) server processor.
  cpu_free_at_ = std::max(cpu_free_at_, host_.event_queue().now()) +
                 config_.per_connection_cpu;
  arm_idle_timer(state);
  // Serve whatever arrived while the connection sat in the accept queue.
  on_data(state);
}

void HttpServer::release_slot(const ConnStatePtr& state) {
  if (!state->admitted) return;
  state->admitted = false;
  --active_connections_;
  metrics_.active_connections.sub(1);
  admit_from_queue();
}

void HttpServer::admit_from_queue() {
  while (!admission_queue_.empty()) {
    if (config_.max_concurrent_connections != 0 &&
        active_connections_ >= config_.max_concurrent_connections) {
      return;
    }
    ConnStatePtr state = admission_queue_.front().lock();
    admission_queue_.pop_front();
    metrics_.admission_queue_depth.sub(1);
    // Skip clients that gave up (closed/reset) while waiting.
    if (!state || state->conn->state() == tcp::State::kClosed) continue;
    admit(state);
  }
}

void HttpServer::reject_with_503(tcp::ConnectionPtr conn) {
  ++stats_.connections_rejected;
  metrics_.rejected.inc();
  http::Response res;
  res.version = http::Version::kHttp11;
  res.status = 503;
  res.reason = std::string(http::default_reason(503));
  res.headers.add("Date", http::format_http_date(
                              http::sim_to_unix(host_.event_queue().now())));
  res.headers.add("Server", config_.server_name);
  res.headers.add("Connection", "close");
  if (config_.overload_retry_after > 0) {
    res.headers.add("Retry-After",
                    std::to_string(config_.overload_retry_after /
                                   1'000'000'000));
  }
  res.headers.add("Content-Length", "0");
  conn->send(res.serialize_chain());
  conn->shutdown_send();
}

void HttpServer::arm_idle_timer(const ConnStatePtr& state) {
  if (config_.idle_timeout <= 0) return;
  std::weak_ptr<ConnState> weak = state;
  state->idle_timer->arm(config_.idle_timeout, [this, weak] {
    if (auto s = weak.lock()) {
      // The keep-alive clock only runs *between* requests: a connection with
      // a request parsed or on the CPU is busy, not idle. Without this check
      // an aggressive timeout (shorter than the per-request CPU cost) would
      // reap connections mid-request and discard the work.
      if (s->processing || !s->pending.empty() || !s->h2_pending.empty() ||
          (s->h2 != nullptr && s->h2->queued_send_bytes() > 0)) {
        arm_idle_timer(s);
        return;
      }
      begin_close(s);
    }
  });
}

void HttpServer::on_data(const ConnStatePtr& state) {
  arm_idle_timer(state);
  if (state->h2 != nullptr) {
    state->h2->receive(state->conn->read_all());
    return;
  }
  if (!state->h1_classified) {
    // Classify by comparing arrived bytes against the 24-byte h2 preface.
    // Every HTTP/1.x method diverges within its first bytes ("PRI" vs
    // "POST" at index 1), so classification resolves on the first segment
    // in practice; the accumulated bytes reach the HTTP/1.x parser in the
    // same event they otherwise would.
    state->preface_buf.append(state->conn->read_all());
    const std::size_t n =
        std::min(state->preface_buf.size(), h2::kClientPreface.size());
    if (state->preface_buf.to_string(0, n) != h2::kClientPreface.substr(0, n)) {
      state->h1_classified = true;
      state->parser.feed(std::move(state->preface_buf));
      state->preface_buf.clear();
    } else if (state->preface_buf.size() >= h2::kClientPreface.size()) {
      start_h2(state);
      return;
    } else {
      return;  // too few bytes to classify yet
    }
  } else {
    state->parser.feed(state->conn->read_all());
  }
  while (auto request = state->parser.next()) {
    state->pending.push_back(std::move(*request));
  }
  // Parse errors surface while draining complete messages.
  if (state->parser.failed() && !state->closing) {
    http::Response bad;
    bad.status = 400;
    bad.reason = std::string(http::default_reason(400));
    bad.headers.add("Content-Length", "0");
    enqueue_response(state, bad);
    state->closing = true;
    flush_output(state, /*idle_flush=*/true);
    return;
  }
  if (!state->processing) process_next(state);
}

void HttpServer::start_h2(const ConnStatePtr& state) {
  ++stats_.h2_connections;
  state->preface_buf.pop_front(h2::kClientPreface.size());
  std::weak_ptr<ConnState> weak = state;
  // The session writes through the connection's unsent queue, so the wire
  // fault injections (stall-after-bytes, premature close) apply to h2
  // traffic exactly as they do to HTTP/1.x responses.
  state->h2 = std::make_unique<h2::Session>(
      h2::SessionConfig{.is_server = true}, [this, weak](buf::Chain&& bytes) {
        if (auto s = weak.lock()) {
          s->out_unsent.append(std::move(bytes));
          pump_unsent(s);
        }
      });
  state->h2->on_request = [this, weak](std::uint32_t id, http::Request req) {
    if (auto s = weak.lock()) {
      s->h2_pending.emplace_back(id, std::move(req));
      if (!s->processing) process_next(s);
    }
  };
  state->h2->on_connection_error = [this, weak](const h2::DecodeError&) {
    if (auto s = weak.lock()) {
      // The session already answered with an attributed GOAWAY; drain it and
      // tear the connection down.
      ++stats_.h2_conn_errors;
      s->h2_pending.clear();
      s->closing = true;
      flush_output(s, /*idle_flush=*/true);
    }
  };
  // Bytes that arrived glued to the preface (SETTINGS at minimum).
  if (!state->preface_buf.empty()) {
    buf::Chain rest = std::move(state->preface_buf);
    state->preface_buf.clear();
    state->h2->receive(std::move(rest));
  }
}

void HttpServer::process_next(const ConnStatePtr& state) {
  if (state->closing) return;
  if (state->pending.empty() && state->h2_pending.empty()) {
    // "the server maintains a response buffer that it flushes ... when there
    // is no more requests coming in on that connection"
    flush_output(state, /*idle_flush=*/true);
    if (state->conn->peer_closed()) begin_close(state);
    return;
  }
  state->processing = true;
  const sim::Time cpu = static_cast<sim::Time>(
      static_cast<double>(config_.per_request_cpu) *
      rng_.jitter(kCpuJitter));
  // Serialize on the single CPU across all connections.
  const sim::Time now = host_.event_queue().now();
  const sim::Time start = std::max(now, cpu_free_at_);
  cpu_free_at_ = start + cpu;
  std::weak_ptr<ConnState> weak = state;
  host_.event_queue().schedule_in(cpu_free_at_ - now, [this, weak] {
    auto s = weak.lock();
    if (!s || s->conn->state() == tcp::State::kClosed) return;
    s->processing = false;
    if (s->h2 != nullptr) {
      if (s->h2_pending.empty()) return;
      const auto [stream_id, request] = std::move(s->h2_pending.front());
      s->h2_pending.pop_front();
      finish_request_h2(s, stream_id, request);
      return;
    }
    if (s->pending.empty()) return;
    const http::Request request = std::move(s->pending.front());
    s->pending.pop_front();
    finish_request(s, request);
  });
}

http::Response HttpServer::build_response(const http::Request& request) {
  http::Response res;
  res.version = request.version;

  // Fault injection: transient 5xx storm.
  if (config_.faults.error_probability > 0.0 &&
      rng_.chance(config_.faults.error_probability)) {
    res.status = 500;
    res.reason = std::string(http::default_reason(500));
    res.headers.add("Date",
                    http::format_http_date(
                        http::sim_to_unix(host_.event_queue().now())));
    res.headers.add("Server", config_.server_name);
    res.headers.add("Content-Length", "0");
    return res;
  }

  const Resource* resource = site_.find(request.target);
  if (resource == nullptr) {
    res.status = 404;
    res.reason = std::string(http::default_reason(404));
    res.headers.add("Date",
                    http::format_http_date(
                        http::sim_to_unix(host_.event_queue().now())));
    res.headers.add("Server", config_.server_name);
    res.headers.add("Content-Length", "0");
    return res;
  }

  // Cache validation: entity tags take precedence over date checks.
  bool not_modified = false;
  if (const auto inm = request.headers.get("If-None-Match")) {
    not_modified = (*inm == resource->etag);
  } else if (const auto ims = request.headers.get("If-Modified-Since")) {
    if (const auto since = http::parse_http_date(*ims)) {
      not_modified = resource->last_modified <= *since;
    }
  }

  res.headers.add("Date", http::format_http_date(
                              http::sim_to_unix(host_.event_queue().now())));
  res.headers.add("Server", config_.server_name);

  if (not_modified) {
    res.status = 304;
    res.reason = std::string(http::default_reason(304));
    res.headers.add("ETag", resource->etag);
    return res;
  }

  // Content negotiation: precompressed deflate variant.
  const buf::Bytes* body = &resource->data;
  bool deflated = false;
  if (!resource->deflated.empty() &&
      request.headers.has_token("Accept-Encoding", "deflate")) {
    body = &resource->deflated;
    deflated = true;
  }

  // Byte ranges (If-Range gating): ranges apply to the selected variant.
  std::size_t first = 0, last = 0;
  bool ranged = false;
  if (const auto range = request.headers.get("Range")) {
    bool range_valid = true;
    if (const auto if_range = request.headers.get("If-Range")) {
      range_valid = (*if_range == resource->etag);
    }
    if (range_valid &&
        parse_byte_range(*range, body->size(), first, last)) {
      ranged = true;
    }
  }

  res.status = ranged ? 206 : 200;
  res.reason = std::string(http::default_reason(res.status));
  res.headers.add("Content-Type", resource->content_type);
  res.headers.add("ETag", resource->etag);
  res.headers.add("Last-Modified",
                  http::format_http_date(resource->last_modified));
  if (deflated) res.headers.add("Content-Encoding", "deflate");
  if (config_.verbose_headers) {
    res.headers.add("Accept-Ranges", "bytes");
    res.headers.add("MIME-Version", "1.0");
  }

  if (ranged) {
    char content_range[80];
    std::snprintf(content_range, sizeof content_range, "bytes %zu-%zu/%zu",
                  first, last, body->size());
    res.headers.add("Content-Range", content_range);
    res.headers.add("Content-Length", std::to_string(last - first + 1));
    if (request.method != http::Method::kHead) {
      // Range responses slice the shared asset block — no byte is copied.
      res.body.append(body->slice(first, last - first + 1));
    }
  } else {
    res.headers.add("Content-Length", std::to_string(body->size()));
    if (request.method != http::Method::kHead) {
      res.body.append(*body);
    }
  }
  return res;
}

void HttpServer::count_response_status(const http::Response& response) {
  switch (response.status) {
    case 200: ++stats_.responses_200; break;
    case 206: ++stats_.responses_206; break;
    case 304: ++stats_.responses_304; break;
    case 404: ++stats_.responses_404; break;
    case 500: ++stats_.responses_5xx; break;
    default: break;
  }
}

void HttpServer::finish_request(const ConnStatePtr& state,
                                const http::Request& request) {
  ++stats_.requests_served;
  metrics_.requests_served.inc();
  ++state->served;
  http::Response res = build_response(request);
  count_response_status(res);
  if (res.headers.has_token("Content-Encoding", "deflate")) {
    ++stats_.deflated_responses;
  }

  // Decide connection persistence.
  bool close_after = false;
  if (request.headers.has_token("Connection", "close")) {
    close_after = true;
  } else if (request.version == http::Version::kHttp10) {
    const bool wants_keepalive =
        request.headers.has_token("Connection", "keep-alive");
    if (wants_keepalive && config_.keep_alive) {
      res.headers.add("Connection", "Keep-Alive");
    } else {
      close_after = true;
    }
  }
  if (config_.max_requests_per_connection != 0 &&
      state->served >= config_.max_requests_per_connection) {
    close_after = true;
    ++stats_.connections_closed_by_limit;
  }
  if (close_after && !res.headers.contains("Connection")) {
    res.headers.add("Connection", "close");
  }

  enqueue_response(state, res);
  if (close_after) {
    state->closing = true;
    flush_output(state, /*idle_flush=*/true);
    return;
  }
  process_next(state);
}

void HttpServer::finish_request_h2(const ConnStatePtr& state,
                                   std::uint32_t stream_id,
                                   const http::Request& request) {
  ++stats_.requests_served;
  metrics_.requests_served.inc();
  ++state->served;
  http::Response res = build_response(request);
  count_response_status(res);
  if (res.headers.has_token("Content-Encoding", "deflate")) {
    ++stats_.deflated_responses;
  }

  // Server push: promise every embedded src= reference before the HTML's
  // DATA frames go out, so the client holds the promises before it could
  // parse the references out of the body.
  struct PendingPush {
    std::uint32_t id;
    http::Request req;
  };
  std::vector<PendingPush> pushes;
  if (state->h2->peer_push_enabled() && res.status == 200 &&
      request.method == http::Method::kGet) {
    if (const Resource* resource = site_.find(request.target)) {
      for (const std::string& ref : resource->image_refs) {
        if (site_.find(ref) == nullptr) continue;
        http::Request push_req;
        push_req.method = http::Method::kGet;
        push_req.target = ref;
        push_req.version = http::Version::kHttp11;
        if (const auto host = request.headers.get("Host")) {
          push_req.headers.add("Host", std::string(*host));
        }
        if (auto promised = state->h2->promise_push(stream_id, push_req)) {
          ++stats_.h2_pushes;
          pushes.push_back(PendingPush{*promised, std::move(push_req)});
        }
      }
    }
  }

  state->h2->submit_response(stream_id, res);
  // Pushed responses ride the same build path (validators, ranges, faults)
  // but count as pushes, not served requests. Their statuses still land in
  // the per-status tallies so injected faults stay observable.
  for (const PendingPush& p : pushes) {
    http::Response pushed = build_response(p.req);
    count_response_status(pushed);
    state->h2->push_response(p.id, pushed);
  }

  // h2 persistence is GOAWAY-based: only the per-connection request cap
  // translates into a close here. Queued DATA drains before the FIN.
  if (config_.max_requests_per_connection != 0 &&
      state->served >= config_.max_requests_per_connection) {
    ++stats_.connections_closed_by_limit;
    state->h2->send_goaway(h2::ErrorCode::kNoError);
    state->closing = true;
    flush_output(state, /*idle_flush=*/true);
    return;
  }
  process_next(state);
}

void HttpServer::enqueue_response(const ConnStatePtr& state,
                                  const http::Response& response) {
  // Head bytes are materialized once; the body rides along as shared slices
  // of the site asset.
  state->out_buffer.append(response.serialize_chain());
  if (state->out_buffer.size() >= config_.output_buffer) {
    ++stats_.output_flushes_full;
    flush_output(state, /*idle_flush=*/false);
  }
}

void HttpServer::flush_output(const ConnStatePtr& state, bool idle_flush) {
  if (!state->out_buffer.empty()) {
    if (idle_flush) ++stats_.output_flushes_idle;
    state->out_unsent.append(std::move(state->out_buffer));
  }
  pump_unsent(state);
}

void HttpServer::pump_unsent(const ConnStatePtr& state) {
  const ServerFaults& faults = config_.faults;
  while (!state->out_unsent.empty()) {
    std::size_t take =
        std::min<std::size_t>(state->out_unsent.size(), 32 * 1024);
    if (state->fault_eligible) {
      if (faults.stall_after_bytes > 0) {
        if (state->wire_bytes_pushed >= faults.stall_after_bytes) {
          // The worker wedges: the connection stays open but goes silent.
          if (!state->stalled) {
            state->stalled = true;
            ++stats_.stalls_injected;
          }
          return;
        }
        take = std::min(take,
                        faults.stall_after_bytes - state->wire_bytes_pushed);
      }
      if (faults.premature_close_after_bytes > 0) {
        if (state->wire_bytes_pushed >= faults.premature_close_after_bytes) {
          inject_premature_close(state);
          return;
        }
        take = std::min(take, faults.premature_close_after_bytes -
                                  state->wire_bytes_pushed);
      }
    }
    // The send chain shares the unsent slices — no flattening.
    const std::size_t sent = state->conn->send(state->out_unsent, take);
    state->wire_bytes_pushed += sent;
    state->out_unsent.pop_front(sent);
    if (sent < take) break;  // TCP send buffer full; resume on space
  }
  if (state->closing && state->out_unsent.empty() &&
      state->out_buffer.empty() &&
      (state->h2 == nullptr || state->h2->queued_send_bytes() == 0)) {
    begin_close(state);
  }
}

void HttpServer::inject_premature_close(const ConnStatePtr& state) {
  ++stats_.premature_closes_injected;
  state->fault_eligible = false;  // fire once per connection
  state->out_buffer.clear();
  state->out_unsent.clear();
  state->pending.clear();
  if (state->h2 != nullptr) {
    // A crashing h2 worker still manages a GOAWAY naming the last stream it
    // processed — the partition the client's retry logic keys on. The fault
    // flag is already cleared, so the frame passes pump_unsent untouched.
    state->h2_pending.clear();
    state->h2->send_goaway(h2::ErrorCode::kInternalError);
  }
  state->closing = true;
  if (config_.close_style == CloseStyle::kNaive) {
    state->conn->close_naive();
  } else {
    state->conn->shutdown_send();
  }
  release_slot(state);
}

void HttpServer::begin_close(const ConnStatePtr& state) {
  state->closing = true;
  // A clean h2 close announces itself; emitting the GOAWAY may re-enter
  // begin_close through the pump, hence the close_begun guard below.
  if (state->h2 != nullptr && !state->h2->goaway_sent()) {
    state->h2->send_goaway(h2::ErrorCode::kNoError);
  }
  if (!state->out_unsent.empty() || !state->out_buffer.empty()) {
    flush_output(state, /*idle_flush=*/true);
    return;  // pump_unsent re-enters begin_close once drained
  }
  if (state->close_begun) return;
  state->close_begun = true;
  if (config_.close_style == CloseStyle::kNaive) {
    state->conn->close_naive();
  } else {
    state->conn->shutdown_send();
  }
  // The worker is done with this connection; the FIN exchange and TIME_WAIT
  // are the TCP stack's problem, not the serving slot's.
  release_slot(state);
}

}  // namespace hsim::server
