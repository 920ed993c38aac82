#include "proxy/proxy.hpp"

#include <algorithm>

namespace hsim::proxy {

namespace {

/// The Via header the HTTP proxy adds to every message it forwards.
constexpr const char* kViaToken = "1.0 hsim-proxy";

}  // namespace

ProxyMetrics ProxyMetrics::bind() {
  ProxyMetrics m;
  if (obs::registry() == nullptr) return m;
  m.client_connections = obs::counter_handle("proxy.client_connections");
  m.upstream_connections = obs::counter_handle("proxy.upstream_connections");
  m.bytes_up = obs::counter_handle("proxy.bytes_relayed_up");
  m.bytes_down = obs::counter_handle("proxy.bytes_relayed_down");
  m.requests_forwarded = obs::counter_handle("proxy.requests_forwarded");
  m.cache_fresh_hits = obs::counter_handle("proxy.cache_fresh_hits");
  m.cache_revalidated_hits =
      obs::counter_handle("proxy.cache_revalidated_hits");
  m.cache_misses = obs::counter_handle("proxy.cache_misses");
  m.cache_stores = obs::counter_handle("proxy.cache_stores");
  m.upstream_body_bytes = obs::counter_handle("proxy.upstream_body_bytes");
  m.idle_hangups = obs::counter_handle("proxy.idle_hangups");
  m.breaker_trips = obs::counter_handle("proxy.breaker_trips");
  m.breaker_rejections = obs::counter_handle("proxy.breaker_rejections");
  m.breaker_probes = obs::counter_handle("proxy.breaker_probes");
  return m;
}

// ---------------------------------------------------------------------------
// TunnelProxy
// ---------------------------------------------------------------------------

TunnelProxy::TunnelProxy(tcp::Host& host, TunnelProxyConfig config)
    : host_(host), config_(std::move(config)) {}

void TunnelProxy::start(net::Port port) {
  host_.listen(port,
               [this](tcp::ConnectionPtr c) { on_client(std::move(c)); },
               config_.tcp);
}

void TunnelProxy::arm_idle(const RelayPtr& relay) {
  if (config_.idle_timeout <= 0) return;
  std::weak_ptr<Relay> weak = relay;
  relay->idle_timer->arm(config_.idle_timeout, [this, weak] {
    if (auto r = weak.lock()) {
      ++stats_.idle_hangups;
      metrics_.idle_hangups.inc();
      if (r->client) r->client->abort();
      if (r->upstream) r->upstream->abort();
      relays_.erase(r->client.get());
    }
  });
}

void TunnelProxy::on_client(tcp::ConnectionPtr conn) {
  ++stats_.client_connections;
  metrics_.client_connections.inc();
  auto relay = std::make_shared<Relay>();
  relay->client = conn;
  relay->idle_timer = std::make_unique<sim::Timer>(host_.event_queue());
  relays_[conn.get()] = relay;

  ++stats_.upstream_connections;
  metrics_.upstream_connections.inc();
  relay->upstream =
      host_.connect(config_.origin_addr, config_.origin_port, config_.tcp);

  std::weak_ptr<Relay> weak = relay;
  relay->upstream->set_on_connected([this, weak] {
    if (auto r = weak.lock()) {
      r->upstream_connected = true;
      if (!r->pending_up.empty()) {
        r->upstream->send(r->pending_up);
        r->pending_up.clear();
      }
    }
  });
  relay->client->set_on_data([this, weak] {
    if (auto r = weak.lock()) relay_up(r);
  });
  relay->upstream->set_on_data([this, weak] {
    if (auto r = weak.lock()) relay_down(r);
  });
  // Close propagation: each side's FIN is mirrored to the other side.
  relay->client->set_on_peer_fin([weak] {
    if (auto r = weak.lock()) r->upstream->shutdown_send();
  });
  relay->upstream->set_on_peer_fin([weak] {
    if (auto r = weak.lock()) r->client->shutdown_send();
  });
  auto cleanup = [this, weak] {
    if (auto r = weak.lock()) {
      r->idle_timer->cancel();
      relays_.erase(r->client.get());
    }
  };
  relay->client->set_on_closed(cleanup);
  relay->client->set_on_reset(cleanup);
  arm_idle(relay);
}

buf::Chain TunnelProxy::filter_request_bytes(const RelayPtr& relay,
                                             buf::Chain bytes) {
  if (!config_.strip_connection_headers || relay->head_scanned) return bytes;
  // Minimal header-awareness: scan the first request head for a Connection
  // line and drop it. (A real mitigating proxy of the era did exactly this
  // and nothing more.) Bytes past the first blank line pass untouched. Only
  // this one head is ever flattened; the steady-state path stays zero-copy.
  const std::string text = bytes.to_string();
  const std::size_t head_end = text.find("\r\n\r\n");
  if (head_end == std::string::npos) return bytes;  // head incomplete: pass
  relay->head_scanned = true;
  std::string head = text.substr(0, head_end + 4);
  std::size_t line_start = 0;
  std::string filtered;
  while (line_start < head.size()) {
    std::size_t line_end = head.find("\r\n", line_start);
    if (line_end == std::string::npos) line_end = head.size();
    const std::string_view line(head.data() + line_start,
                                line_end - line_start);
    const bool is_connection =
        line.size() >= 11 &&
        http::iequals(line.substr(0, 11), "connection:");
    if (is_connection) {
      ++stats_.keep_alive_headers_stripped;
    } else {
      filtered.append(line);
      filtered.append("\r\n");
    }
    line_start = line_end + 2;
  }
  filtered += text.substr(head_end + 4);
  buf::Chain out;
  out.append(buf::Bytes(std::string_view(filtered)));
  return out;
}

void TunnelProxy::relay_up(const RelayPtr& relay) {
  arm_idle(relay);
  buf::Chain bytes = relay->client->read_all();
  if (bytes.empty()) return;
  bytes = filter_request_bytes(relay, std::move(bytes));
  stats_.bytes_relayed_up += bytes.size();
  metrics_.bytes_up.inc(bytes.size());
  if (!relay->upstream_connected) {
    relay->pending_up.append(std::move(bytes));
    return;
  }
  relay->upstream->send(bytes);
}

void TunnelProxy::relay_down(const RelayPtr& relay) {
  arm_idle(relay);
  const buf::Chain bytes = relay->upstream->read_all();
  if (bytes.empty()) return;
  stats_.bytes_relayed_down += bytes.size();
  metrics_.bytes_down.inc(bytes.size());
  relay->client->send(bytes);
}

// ---------------------------------------------------------------------------
// HttpProxy
// ---------------------------------------------------------------------------

HttpProxy::HttpProxy(tcp::Host& host, HttpProxyConfig config)
    : host_(host), config_(std::move(config)) {}

void HttpProxy::start(net::Port port) {
  host_.listen(port,
               [this](tcp::ConnectionPtr c) { on_client(std::move(c)); },
               config_.tcp);
}

void HttpProxy::strip_hop_by_hop(http::Headers& headers, ProxyStats& stats) {
  // Remove any headers the Connection header names, then Connection itself
  // (RFC 2068 §14.10 — the fix the paper alludes to).
  if (const auto connection = headers.get("Connection")) {
    std::string value(*connection);
    std::size_t start = 0;
    while (start < value.size()) {
      std::size_t comma = value.find(',', start);
      if (comma == std::string::npos) comma = value.size();
      std::string token = value.substr(start, comma - start);
      // Trim.
      while (!token.empty() && token.front() == ' ') token.erase(0, 1);
      while (!token.empty() && token.back() == ' ') token.pop_back();
      if (!token.empty() && !http::iequals(token, "close")) {
        headers.remove(token);
      }
      start = comma + 1;
    }
    headers.remove("Connection");
    ++stats.keep_alive_headers_stripped;
  }
  headers.remove("Keep-Alive");
  headers.remove("Proxy-Connection");
}

void HttpProxy::on_client(tcp::ConnectionPtr conn) {
  ++stats_.client_connections;
  metrics_.client_connections.inc();
  auto state = std::make_shared<ClientConn>();
  state->conn = conn;
  state->idle_timer = std::make_unique<sim::Timer>(host_.event_queue());
  clients_[conn.get()] = state;

  std::weak_ptr<ClientConn> weak = state;
  conn->set_on_data([this, weak] {
    auto s = weak.lock();
    if (!s) return;
    s->parser.feed(s->conn->read_all());
    while (auto request = s->parser.next()) {
      s->pending.push_back(std::move(*request));
    }
    pump(s);
  });
  auto cleanup = [this, weak] {
    if (auto s = weak.lock()) {
      s->idle_timer->cancel();
      clients_.erase(s->conn.get());
    }
  };
  conn->set_on_closed(cleanup);
  conn->set_on_reset(cleanup);
  conn->set_on_peer_fin([this, weak] {
    if (auto s = weak.lock()) {
      if (s->pending.empty() && !s->forwarding) s->conn->shutdown_send();
    }
  });
  if (config_.idle_timeout > 0) {
    state->idle_timer->arm(config_.idle_timeout, [this, weak] {
      if (auto s = weak.lock()) {
        ++stats_.idle_hangups;
        metrics_.idle_hangups.inc();
        s->conn->shutdown_send();
      }
    });
  }
}

void HttpProxy::pump(const ClientConnPtr& state) {
  if (state->forwarding || state->pending.empty()) return;
  http::Request request = std::move(state->pending.front());
  state->pending.pop_front();
  state->forwarding = true;
  const sim::Time cpu = config_.per_request_cpu;
  std::weak_ptr<ClientConn> weak = state;
  host_.event_queue().schedule_in(cpu, [this, weak,
                                        request = std::move(request)]() mutable {
    if (auto s = weak.lock()) forward(s, std::move(request));
  });
}

void HttpProxy::respond(const ClientConnPtr& state, http::Response response) {
  ++stats_.responses_forwarded;
  strip_hop_by_hop(response.headers, stats_);
  response.headers.add("Via", kViaToken);
  const buf::Chain wire = response.serialize_chain();
  stats_.bytes_relayed_down += wire.size();
  metrics_.bytes_down.inc(wire.size());
  state->conn->send(wire);
  state->forwarding = false;
  if (state->conn->peer_closed() && state->pending.empty()) {
    state->conn->shutdown_send();
  } else {
    pump(state);
  }
}

namespace {
/// Runs one request against the origin over a fresh connection; calls
/// `handler` with the response, or with nullopt if the origin reset.
void fetch_upstream(tcp::Host& host, const HttpProxyConfig& config,
                    ProxyStats& stats, http::Request request,
                    std::function<void(std::optional<http::Response>)>
                        handler) {
  ++stats.upstream_connections;
  tcp::ConnectionPtr upstream =
      host.connect(config.origin_addr, config.origin_port, config.tcp);
  auto parser = std::make_shared<http::ResponseParser>();
  parser->push_request_context(request.method);
  // A Bytes handle is its own shared ownership — no extra shared_ptr needed.
  const buf::Bytes wire(request.serialize());
  stats.bytes_relayed_up += wire.size();
  auto shared_handler = std::make_shared<
      std::function<void(std::optional<http::Response>)>>(std::move(handler));

  upstream->set_on_connected([upstream = upstream.get(), wire] {
    upstream->send(wire);
    upstream->shutdown_send();  // one request per upstream connection
  });
  upstream->set_on_data(
      [upstream = upstream.get(), parser, shared_handler] {
        parser->feed(upstream->read_all());
        if (auto response = parser->next()) {
          if (*shared_handler) {
            auto h = std::move(*shared_handler);
            *shared_handler = nullptr;
            h(std::move(*response));
          }
        }
      });
  upstream->set_on_peer_fin([upstream = upstream.get(), parser,
                             shared_handler] {
    parser->feed(upstream->read_all());
    parser->on_connection_closed();
    auto response = parser->next();
    if (*shared_handler) {
      auto h = std::move(*shared_handler);
      *shared_handler = nullptr;
      // Close without a complete response is an upstream failure, not a
      // silent hang — the handler must always resolve.
      h(response ? std::optional<http::Response>(std::move(*response))
                 : std::nullopt);
    }
  });
  upstream->set_on_reset([shared_handler] {
    if (*shared_handler) {
      auto h = std::move(*shared_handler);
      *shared_handler = nullptr;
      h(std::nullopt);
    }
  });
}
}  // namespace

void HttpProxy::store_in_cache(const std::string& target,
                               const http::Response& response) {
  CacheEntry entry;
  entry.response = response;
  if (const auto etag = response.headers.get("ETag")) {
    entry.etag = std::string(*etag);
  }
  entry.stored_at = host_.event_queue().now();
  cache_[target] = std::move(entry);
  ++stats_.cache_stores;
  metrics_.cache_stores.inc();
}

bool HttpProxy::try_cache(const ClientConnPtr& state,
                          const http::Request& request) {
  if (!config_.enable_cache || request.method != http::Method::kGet) {
    return false;
  }
  const auto it = cache_.find(request.target);
  if (it == cache_.end()) {
    ++stats_.cache_misses;
    metrics_.cache_misses.inc();
    return false;
  }
  const sim::Time now = host_.event_queue().now();

  // Serving helper: honours the *client's* conditional request against the
  // cached validator (a 304 to the client costs almost nothing).
  auto serve_entry = [this, state](const CacheEntry& entry,
                                   const http::Request& req) {
    const auto client_inm = req.headers.get("If-None-Match");
    if (client_inm && !entry.etag.empty() && *client_inm == entry.etag) {
      http::Response not_modified;
      not_modified.version = req.version;
      not_modified.status = 304;
      not_modified.reason = std::string(http::default_reason(304));
      not_modified.headers.add("ETag", entry.etag);
      respond(state, std::move(not_modified));
      return;
    }
    http::Response copy = entry.response;
    copy.headers.set(
        "Age", std::to_string((host_.event_queue().now() - entry.stored_at) /
                              1'000'000'000));
    respond(state, std::move(copy));
  };

  if (config_.cache_fresh_ttl > 0 &&
      now - it->second.stored_at <= config_.cache_fresh_ttl) {
    ++stats_.cache_fresh_hits;
    metrics_.cache_fresh_hits.inc();
    serve_entry(it->second, request);
    return true;
  }

  // Stale: revalidate upstream with our validator (the cheap HTTP/1.1
  // conditional GET the paper expects caches to use extensively).
  if (!breaker_allows()) {
    // Open circuit: a stale copy beats hammering a struggling origin.
    serve_entry(it->second, request);
    return true;
  }
  http::Request conditional = request;
  if (!it->second.etag.empty()) {
    conditional.headers.set("If-None-Match", it->second.etag);
  }
  std::weak_ptr<ClientConn> weak = state;
  metrics_.upstream_connections.inc();
  fetch_upstream(
      host_, config_, stats_, std::move(conditional),
      [this, weak, target = request.target,
       request](std::optional<http::Response> response) {
        breaker_record(response.has_value() && response->status < 500);
        auto s = weak.lock();
        if (!s) return;
        if (!response) {
          s->forwarding = false;
          s->conn->shutdown_send();
          return;
        }
        auto entry_it = cache_.find(target);
        if (response->status == 304 && entry_it != cache_.end()) {
          ++stats_.cache_revalidated_hits;
          metrics_.cache_revalidated_hits.inc();
          entry_it->second.stored_at = host_.event_queue().now();
          const auto client_inm = request.headers.get("If-None-Match");
          if (client_inm && *client_inm == entry_it->second.etag) {
            respond(s, std::move(*response));  // pass the 304 through
            return;
          }
          http::Response copy = entry_it->second.response;
          copy.headers.set("Age", "0");
          respond(s, std::move(copy));
          return;
        }
        stats_.upstream_body_bytes += response->body.size();
        metrics_.upstream_body_bytes.inc(response->body.size());
        if (response->status == 200) store_in_cache(target, *response);
        respond(s, std::move(*response));
      });
  return true;
}

bool HttpProxy::breaker_allows() {
  if (!config_.breaker.enabled) return true;
  const sim::Time now = host_.event_queue().now();
  if (breaker_state_ == BreakerState::kOpen &&
      now - breaker_opened_at_ >= config_.breaker.open_duration) {
    breaker_state_ = BreakerState::kHalfOpen;
  }
  switch (breaker_state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      return false;
    case BreakerState::kHalfOpen:
      if (breaker_probe_in_flight_) return false;
      breaker_probe_in_flight_ = true;
      ++stats_.breaker_probes;
      metrics_.breaker_probes.inc();
      return true;
  }
  return true;
}

void HttpProxy::breaker_record(bool success) {
  if (!config_.breaker.enabled) return;
  breaker_probe_in_flight_ = false;
  if (success) {
    breaker_failures_ = 0;
    breaker_state_ = BreakerState::kClosed;
    return;
  }
  if (breaker_state_ == BreakerState::kHalfOpen) {
    // Failed probe: straight back to open for another full window.
    breaker_state_ = BreakerState::kOpen;
    breaker_opened_at_ = host_.event_queue().now();
    ++stats_.breaker_trips;
    metrics_.breaker_trips.inc();
    return;
  }
  if (breaker_state_ == BreakerState::kClosed &&
      ++breaker_failures_ >= config_.breaker.failure_threshold) {
    breaker_state_ = BreakerState::kOpen;
    breaker_opened_at_ = host_.event_queue().now();
    ++stats_.breaker_trips;
    metrics_.breaker_trips.inc();
  }
}

void HttpProxy::reject_open_circuit(const ClientConnPtr& state,
                                    const http::Request& request) {
  ++stats_.breaker_rejections;
  metrics_.breaker_rejections.inc();
  http::Response response;
  response.version = request.version;
  response.status = 503;
  response.reason = std::string(http::default_reason(503));
  if (config_.breaker.retry_after > 0) {
    response.headers.add(
        "Retry-After",
        std::to_string(config_.breaker.retry_after / 1'000'000'000));
  }
  response.headers.add("Content-Length", "0");
  respond(state, std::move(response));
}

void HttpProxy::forward(const ClientConnPtr& state, http::Request request) {
  ++stats_.requests_forwarded;
  metrics_.requests_forwarded.inc();
  strip_hop_by_hop(request.headers, stats_);
  request.headers.add("Via", kViaToken);

  if (try_cache(state, request)) return;
  if (!breaker_allows()) {
    reject_open_circuit(state, request);
    return;
  }

  std::weak_ptr<ClientConn> weak = state;
  metrics_.upstream_connections.inc();
  fetch_upstream(
      host_, config_, stats_, request,
      [this, weak, target = request.target,
       method = request.method](std::optional<http::Response> response) {
        breaker_record(response.has_value() && response->status < 500);
        auto s = weak.lock();
        if (!s) return;
        if (!response) {
          // Upstream died: tell the client with a close.
          s->forwarding = false;
          s->conn->shutdown_send();
          return;
        }
        stats_.upstream_body_bytes += response->body.size();
        metrics_.upstream_body_bytes.inc(response->body.size());
        if (config_.enable_cache && method == http::Method::kGet &&
            response->status == 200) {
          store_in_cache(target, *response);
        }
        respond(s, std::move(*response));
      });
}

}  // namespace hsim::proxy
