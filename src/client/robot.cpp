#include "client/robot.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "content/microscape.hpp"
#include "http/date.hpp"

namespace hsim::client {

namespace {

/// Cap on one retry backoff wait (see ClientConfig::retry_backoff).
constexpr sim::Time kRetryBackoffCap = sim::seconds(10);

}  // namespace

std::string_view to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kConnectFailure: return "connect-failure";
    case FailureKind::kTransportFailure: return "transport-failure";
    case FailureKind::kRequestDeadline: return "request-deadline";
    case FailureKind::kPageDeadline: return "page-deadline";
    case FailureKind::kServerError: return "server-error";
    case FailureKind::kConnectionLost: return "connection-lost";
    case FailureKind::kRetryBudgetExhausted: return "retry-budget-exhausted";
  }
  return "?";
}

std::string_view to_string(ProtocolMode mode) {
  switch (mode) {
    case ProtocolMode::kHttp10Parallel: return "HTTP/1.0";
    case ProtocolMode::kHttp11Persistent: return "HTTP/1.1";
    case ProtocolMode::kHttp11Pipelined: return "HTTP/1.1 Pipelined";
    case ProtocolMode::kHttp11PipelinedCompressed:
      return "HTTP/1.1 Pipelined w. compression";
    case ProtocolMode::kH2: return "HTTP/2 mux";
  }
  return "?";
}

Robot::Metrics Robot::Metrics::bind() {
  Metrics m;
  if (obs::registry() == nullptr) return m;
  m.requests_sent = obs::counter_handle("client.requests_sent");
  m.retries = obs::counter_handle("client.retries");
  m.request_latency_us = obs::histogram_handle("client.request_latency_us");
  return m;
}

Robot::Robot(tcp::Host& host, net::IpAddr server_addr, net::Port server_port,
             ClientConfig config)
    : host_(host),
      server_addr_(server_addr),
      server_port_(server_port),
      config_(std::move(config)),
      retry_timer_(host.event_queue()),
      page_timer_(host.event_queue()),
      retry_rng_(config_.retry_jitter_seed) {}

Robot::~Robot() {
  for (const LanePtr& lane : lanes_) {
    if (lane->conn) {
      lane->conn->set_on_data({});
      lane->conn->set_on_connected({});
      lane->conn->set_on_closed({});
      lane->conn->set_on_reset({});
      lane->conn->set_on_peer_fin({});
      lane->conn->set_on_send_space({});
      lane->conn->set_on_failed({});
    }
  }
}

void Robot::begin(DoneCallback done) {
  done_ = std::move(done);
  stats_ = RobotStats{};
  stats_.started = host_.event_queue().now();
  queue_.clear();
  lanes_.clear();
  expected_responses_ = 0;
  completed_responses_ = 0;
  first_request_issued_ = false;
  finished_ = false;
  html_text_.clear();
  html_raw_consumed_ = 0;
  refs_scanned_to_ = 0;
  pushed_targets_.clear();
  inflater_.reset();
  retry_tokens_ = config_.retry_budget;
  retry_timer_.cancel();
  page_timer_.cancel();
  if (config_.page_deadline > 0) {
    page_timer_.arm(config_.page_deadline, [this] { on_page_deadline(); });
  }
}

void Robot::start_first_visit(const std::string& root, DoneCallback done) {
  begin(std::move(done));
  first_visit_ = true;
  root_target_ = root;
  PendingRequest req;
  req.target = root;
  req.is_root = true;
  ++expected_responses_;
  queue_.push_back(std::move(req));
  pump();
}

void Robot::start_revalidation(const std::string& root, DoneCallback done) {
  begin(std::move(done));
  first_visit_ = false;
  root_target_ = root;

  // Root first, then every cached object, in document order if known.
  std::vector<std::string> targets;
  targets.push_back(root);
  for (const std::string& path : cache_.paths()) {
    if (path != root) targets.push_back(path);
  }
  for (const std::string& target : targets) {
    PendingRequest req;
    req.target = target;
    req.is_root = (target == root);
    switch (config_.revalidation) {
      case RevalidationStyle::kConditionalGet:
        req.method = http::Method::kGet;
        req.conditional = true;
        break;
      case RevalidationStyle::kGetPlusHead:
        // The old robot: plain GET for the page, HEAD for the images.
        req.method = req.is_root ? http::Method::kGet : http::Method::kHead;
        break;
      case RevalidationStyle::kUnconditionalGet:
        req.method = http::Method::kGet;
        break;
    }
    ++expected_responses_;
    queue_.push_back(std::move(req));
  }
  pump();
}

Robot::LanePtr Robot::open_lane() {
  auto lane = std::make_shared<Lane>();
  lane->flush_timer = std::make_unique<sim::Timer>(host_.event_queue());
  lane->deadline_timer = std::make_unique<sim::Timer>(host_.event_queue());
  tcp::TcpOptions opts = config_.tcp;
  opts.nodelay = config_.nodelay;
  lane->conn = host_.connect(server_addr_, server_port_, opts);

  std::weak_ptr<Lane> weak = lane;
  lane->conn->set_on_connected([this, weak] {
    if (auto l = weak.lock()) {
      l->connected = true;
      pump_lane_output(l);
    }
  });
  lane->conn->set_on_data([this, weak] {
    if (auto l = weak.lock()) on_lane_data(l);
  });
  lane->conn->set_on_send_space([this, weak] {
    if (auto l = weak.lock()) pump_lane_output(l);
  });
  lane->conn->set_on_peer_fin([this, weak] {
    if (auto l = weak.lock()) {
      // Server finished sending: complete any read-until-close body.
      if (!l->h2) l->parser.on_connection_closed();
      on_lane_data(l);
      // Close our half as well (no more requests will ride this lane).
      l->conn->shutdown_send();
      if (!l->closed) {
        l->closed = true;
        on_lane_closed(l, LaneClose::kGraceful);
      }
    }
  });
  lane->conn->set_on_closed([this, weak] {
    if (auto l = weak.lock(); l && !l->closed) {
      l->closed = true;
      if (!l->h2) l->parser.on_connection_closed();
      on_lane_data(l);
      on_lane_closed(l, LaneClose::kGraceful);
    }
  });
  lane->conn->set_on_reset([this, weak] {
    if (auto l = weak.lock(); l && !l->closed) {
      l->closed = true;
      ++stats_.resets_seen;
      on_lane_closed(l, LaneClose::kReset);
    }
  });
  lane->conn->set_on_failed([this, weak] {
    // Terminal transport error: the TCP layer exhausted its retries (SYN cap
    // or max_data_retransmits) and tore the connection down.
    if (auto l = weak.lock(); l && !l->closed) {
      l->closed = true;
      on_lane_closed(l, l->connected ? LaneClose::kTransportFailure
                                     : LaneClose::kConnectFailure);
    }
  });
  if (config_.h2()) attach_h2_session(lane);
  lanes_.push_back(lane);
  return lane;
}

void Robot::attach_h2_session(const LanePtr& lane) {
  h2::SessionConfig sc;
  sc.is_server = false;
  // Advertise ENABLE_PUSH only when a push could ever be admitted: on a
  // revalidation visit every resource is fetched conditionally up front, so
  // the server should not bother promising anything.
  sc.enable_push =
      config_.h2_enable_push && config_.follow_embedded && first_visit_;
  std::weak_ptr<Lane> weak = lane;
  lane->h2 = std::make_unique<h2::Session>(
      sc, [this, weak](buf::Chain&& bytes) {
        if (auto l = weak.lock(); l && !l->closed) {
          l->out_unsent.append(std::move(bytes));
          pump_lane_output(l);
        }
      });
  h2::Session& session = *lane->h2;

  session.on_response = [this, weak](std::uint32_t id, http::Response res) {
    auto l = weak.lock();
    if (!l || finished_) return;
    auto it = l->h2_outstanding.find(id);
    if (it == l->h2_outstanding.end()) return;
    PendingRequest pending = std::move(it->second);
    l->h2_outstanding.erase(it);
    // A complete stream is "progress" (same rule as the HTTP/1.x pipeline).
    arm_request_deadline(l);
    deliver_response(l, std::move(pending), std::move(res));
  };
  // A finished push stream is bookkept exactly like a response to a request
  // we issued: the accepted promise already lives in h2_outstanding.
  session.on_push_response = session.on_response;

  session.on_stream_data = [this, weak](std::uint32_t id, std::size_t) {
    auto l = weak.lock();
    if (!l || finished_ || !first_visit_) return;
    auto it = l->h2_outstanding.find(id);
    if (it == l->h2_outstanding.end() || !it->second.is_root) return;
    if (const http::Response* partial = l->h2->stream_partial(id)) {
      scan_partial_body(*partial);
    }
  };

  session.on_push_promise = [this, weak](std::uint32_t id,
                                         const http::Request& req) {
    auto l = weak.lock();
    if (!l || finished_) return false;
    ++stats_.pushes_promised;
    if (!first_visit_ || !config_.follow_embedded ||
        pushed_targets_.count(req.target) != 0 ||
        cache_.find(req.target) != nullptr || target_in_flight(req.target)) {
      ++stats_.pushes_rejected;
      return false;
    }
    pushed_targets_.insert(req.target);
    ++stats_.pushes_accepted;
    ++expected_responses_;
    PendingRequest pending;
    pending.target = req.target;
    pending.from_push = true;
    pending.issued_at = host_.event_queue().now();
    l->h2_outstanding.emplace(id, std::move(pending));
    return true;
  };

  session.on_stream_reset = [this, weak](std::uint32_t id,
                                         h2::ErrorCode code) {
    auto l = weak.lock();
    if (!l || finished_) return;
    auto it = l->h2_outstanding.find(id);
    if (it == l->h2_outstanding.end()) return;
    PendingRequest req = std::move(it->second);
    l->h2_outstanding.erase(it);
    arm_request_deadline(l);
    const sim::Time now = host_.event_queue().now();
    if (req.from_push || code == h2::ErrorCode::kRefusedStream) {
      // REFUSED_STREAM — and a push the server abandoned — is an explicit
      // "not processed": re-issue as a plain request, free of charge.
      req.from_push = false;
      req.not_before = now;
      queue_.push_back(std::move(req));
    } else if (++req.attempts >= config_.max_attempts) {
      ++stats_.responses_error;
      fail_request(req, FailureKind::kConnectionLost);
    } else if (!consume_retry_token()) {
      fail_request(req, FailureKind::kRetryBudgetExhausted);
    } else {
      ++stats_.retries_after_reset;
      req.not_before = now + backoff_delay(req.attempts);
      queue_.push_back(std::move(req));
    }
    maybe_finish();
    if (!finished_) pump();
  };

  session.on_goaway = [this, weak](const h2::GoAway&) {
    if (auto l = weak.lock(); l && !finished_) ++stats_.h2_goaways_seen;
  };

  session.on_connection_error = [this, weak](const h2::DecodeError&) {
    auto l = weak.lock();
    if (!l || finished_ || l->closed) return;
    // The peer violated framing. The session already queued its GOAWAY
    // (pumped through the sink above); tear the transport down and recover
    // through the usual requeue path.
    l->closed = true;
    l->conn->abort();
    on_lane_closed(l, LaneClose::kTransportFailure);
  };
}

http::Request Robot::build_request(const PendingRequest& pending) const {
  http::Request req;
  req.method = pending.method;
  req.target = pending.target;
  req.version =
      config_.http11() ? http::Version::kHttp11 : http::Version::kHttp10;
  req.headers.add("Host", "www.microscape.test");
  req.headers.add("User-Agent", config_.profile.user_agent);
  for (const auto& [name, value] : config_.profile.extra_headers) {
    req.headers.add(name, value);
  }
  if (config_.wants_deflate()) {
    req.headers.add("Accept-Encoding", "deflate");
  }
  if (!config_.http11() && config_.profile.send_keep_alive) {
    req.headers.add("Connection", "Keep-Alive");
  }
  if (pending.conditional) {
    if (const CacheEntry* entry = cache_.find(pending.target)) {
      if (config_.use_etags && !entry->etag.empty()) {
        req.headers.add("If-None-Match", entry->etag);
      } else if (entry->last_modified != 0) {
        req.headers.add("If-Modified-Since",
                        http::format_http_date(entry->last_modified));
      }
      if (config_.validate_with_ranges && !pending.is_root) {
        // Unchanged -> 304 as usual; changed -> 206 carrying only the
        // metadata prefix of the new entity.
        req.headers.add("Range", "bytes=0-1359");
      }
    }
  }
  return req;
}

void Robot::issue_on_lane(const LanePtr& lane, PendingRequest pending) {
  if (config_.h2()) {
    const http::Request req = build_request(pending);
    first_request_issued_ = true;
    ++stats_.requests_sent;
    if (pending.attempts > 0) ++stats_.retries;
    metrics_.requests_sent.inc();
    if (pending.attempts > 0) metrics_.retries.inc();
    pending.issued_at = host_.event_queue().now();
    // The document stream outranks images so reference discovery (or the
    // server's push promises) starts flowing as early as possible.
    const std::uint32_t id =
        lane->h2->submit_request(req, pending.is_root ? 32 : 16);
    lane->h2_outstanding.emplace(id, std::move(pending));
    if (!lane->deadline_timer->armed()) arm_request_deadline(lane);
    return;
  }
  const http::Request req = build_request(pending);
  // Adopt the serialized request; the chain shares it from here on.
  lane->out_buffer.append(buf::Bytes(req.serialize()));
  lane->parser.push_request_context(pending.method);
  const bool is_first = !first_request_issued_;
  first_request_issued_ = true;
  ++stats_.requests_sent;
  if (pending.attempts > 0) ++stats_.retries;
  metrics_.requests_sent.inc();
  if (pending.attempts > 0) metrics_.retries.inc();
  pending.issued_at = host_.event_queue().now();
  lane->outstanding.push_back(std::move(pending));
  // The deadline clock covers the response at the head of the pipeline; it
  // is restarted as complete responses arrive (see on_lane_data).
  if (!lane->deadline_timer->armed()) arm_request_deadline(lane);

  if (!config_.pipelined()) {
    // Persistent / HTTP/1.0 modes write each request immediately.
    flush_lane(lane);
    return;
  }
  // Pipelined: buffer, with three flush triggers (size, explicit, timer).
  if (is_first && config_.explicit_first_flush) {
    ++stats_.explicit_flushes;
    flush_lane(lane);
  } else if (lane->out_buffer.size() >= config_.pipeline_buffer) {
    ++stats_.size_flushes;
    flush_lane(lane);
  } else if (!lane->flush_timer->armed()) {
    std::weak_ptr<Lane> weak = lane;
    lane->flush_timer->arm(config_.flush_timeout, [this, weak] {
      if (auto l = weak.lock(); l && !l->out_buffer.empty()) {
        ++stats_.timer_flushes;
        flush_lane(l);
      }
    });
  }
}

void Robot::flush_lane(const LanePtr& lane) {
  lane->flush_timer->cancel();
  if (!lane->out_buffer.empty()) {
    lane->out_unsent.append(std::move(lane->out_buffer));
  }
  pump_lane_output(lane);
}

void Robot::pump_lane_output(const LanePtr& lane) {
  if (!lane->connected || lane->closed) return;
  while (!lane->out_unsent.empty()) {
    const std::size_t want = lane->out_unsent.size();
    const std::size_t sent = lane->conn->send(lane->out_unsent);
    lane->out_unsent.pop_front(sent);
    if (sent < want) break;
  }
}

void Robot::pump() {
  if (finished_) return;
  const sim::Time now = host_.event_queue().now();
  // Retry backoff gates the queue head only: requests stay strictly FIFO
  // (reordering pipelined requests around a backed-off head would reorder
  // responses relative to request issue order).
  auto head_ready = [&] {
    return !queue_.empty() && queue_.front().not_before <= now;
  };
  auto arm_retry_wakeup = [&] {
    if (!queue_.empty() && queue_.front().not_before > now &&
        !retry_timer_.armed()) {
      retry_timer_.arm(queue_.front().not_before - now, [this] { pump(); });
    }
  };
  if (config_.pipelined() || config_.h2()) {
    // Single persistent connection carrying the whole pipeline (h2: the
    // whole set of concurrent streams).
    LanePtr lane;
    for (const LanePtr& l : lanes_) {
      if (!l->closed) {
        lane = l;
        break;
      }
    }
    if (!lane) {
      if (!head_ready()) {
        arm_retry_wakeup();
        return;
      }
      lane = open_lane();
    }
    while (head_ready()) {
      PendingRequest req = std::move(queue_.front());
      queue_.pop_front();
      issue_on_lane(lane, std::move(req));
    }
    arm_retry_wakeup();
    return;
  }

  // Non-pipelined: a pool of connections, one request outstanding per lane.
  // Covers plain HTTP/1.0 (lane dies per response), HTTP/1.0 + Keep-Alive
  // and HTTP/1.1 persistent (lane reused), and the browsers' N-parallel
  // strategies. First reuse idle lanes, then open new ones up to the cap.
  for (const LanePtr& lane : lanes_) {
    if (!head_ready()) break;
    if (!lane->closed && lane->connected && lane->outstanding.empty()) {
      PendingRequest req = std::move(queue_.front());
      queue_.pop_front();
      issue_on_lane(lane, std::move(req));
    }
  }
  auto open_count = [&] {
    std::size_t n = 0;
    for (const LanePtr& l : lanes_) {
      if (!l->closed) ++n;
    }
    return n;
  };
  while (head_ready() && open_count() < config_.max_connections) {
    LanePtr lane = open_lane();
    PendingRequest req = std::move(queue_.front());
    queue_.pop_front();
    issue_on_lane(lane, std::move(req));
  }
  arm_retry_wakeup();
}

void Robot::on_lane_data(const LanePtr& lane) {
  if (finished_) return;
  if (lane->h2) {
    // Everything flows through the framing layer; stream completion and
    // incremental document scanning arrive via the session callbacks.
    lane->h2->receive(lane->conn->read_all());
    return;
  }
  buf::Chain bytes = lane->conn->read_all();
  if (!bytes.empty()) lane->parser.feed(std::move(bytes));

  bool popped_any = false;
  while (auto response = lane->parser.next()) {
    if (lane->outstanding.empty()) break;  // unsolicited data; drop
    PendingRequest pending = std::move(lane->outstanding.front());
    lane->outstanding.pop_front();
    popped_any = true;
    deliver_response(lane, std::move(pending), std::move(*response));
    if (finished_) return;
  }
  // A complete response is "progress": restart (or clear) the per-request
  // deadline. Raw bytes deliberately do NOT restart it — a server that
  // trickles a response forever would otherwise never trip the deadline.
  if (popped_any) arm_request_deadline(lane);
  scan_html_progress(lane);
}

void Robot::deliver_response(const LanePtr& lane, PendingRequest pending,
                             http::Response response) {
  if (config_.per_response_cpu <= 0) {
    handle_response(lane, pending, std::move(response));
    return;
  }
  // Response handling costs client CPU, serialized on the one processor.
  const sim::Time now = host_.event_queue().now();
  const sim::Time start = std::max(now, client_cpu_free_);
  client_cpu_free_ = start + config_.per_response_cpu;
  host_.event_queue().schedule_in(
      client_cpu_free_ - now,
      [this, lane, pending = std::move(pending),
       response = std::move(response)]() mutable {
        if (!finished_) handle_response(lane, pending, std::move(response));
      });
}

void Robot::scan_html_progress(const LanePtr& lane) {
  if (!first_visit_ || finished_) return;
  if (lane->outstanding.empty() || !lane->outstanding.front().is_root) return;
  const http::Response* partial = lane->parser.partial();
  if (partial == nullptr) return;
  scan_partial_body(*partial);
}

void Robot::scan_partial_body(const http::Response& partial) {
  const bool deflated =
      partial.headers.has_token("Content-Encoding", "deflate");
  if (partial.body.size() > html_raw_consumed_) {
    // Walk the chain's contiguous runs past the consumed prefix; no flatten.
    partial.body.slice(html_raw_consumed_)
        .for_each([&](std::span<const std::uint8_t> run) {
          ingest_html_bytes(run, deflated);
        });
    discover_references();
  }
}

void Robot::ingest_html_bytes(std::span<const std::uint8_t> raw,
                              bool deflated) {
  if (stats_.first_html_byte_at == 0 && !raw.empty()) {
    stats_.first_html_byte_at = host_.event_queue().now();
  }
  html_raw_consumed_ += raw.size();
  if (deflated) {
    if (!inflater_) inflater_.emplace(deflate::Inflater::Format::kZlib);
    std::vector<std::uint8_t> out;
    inflater_->feed(raw, out);
    html_text_.append(out.begin(), out.end());
  } else {
    html_text_.append(raw.begin(), raw.end());
  }
}

void Robot::discover_references() {
  if (!config_.follow_embedded) return;
  std::vector<std::string> refs;
  refs_scanned_to_ =
      content::scan_image_references(html_text_, refs_scanned_to_, refs);
  bool added = false;
  for (std::string& ref : refs) {
    if (pushed_targets_.count(ref) != 0) continue;  // the push IS the fetch
    PendingRequest req;
    req.target = std::move(ref);
    ++expected_responses_;
    queue_.push_back(std::move(req));
    added = true;
  }
  if (added) pump();
}

void Robot::handle_response(const LanePtr& lane, const PendingRequest& pending,
                            http::Response response) {
  stats_.body_bytes += response.body.size();
  metrics_.request_latency_us.observe(static_cast<std::uint64_t>(
      (host_.event_queue().now() - pending.issued_at) / 1000));

  if (response.status >= 500 && config_.retry_server_errors) {
    // A transient server error: re-issue (with backoff) instead of treating
    // the response as terminal. The retry is a fresh attempt, so it counts
    // against max_attempts like a connection-loss recovery does.
    ++stats_.responses_error;
    PendingRequest retry = pending;
    ++retry.attempts;
    if (retry.attempts >= config_.max_attempts) {
      fail_request(retry, FailureKind::kServerError);
    } else if (!consume_retry_token()) {
      fail_request(retry, FailureKind::kRetryBudgetExhausted);
    } else {
      sim::Time delay = backoff_delay(retry.attempts);
      // An overloaded upstream (or a tripped proxy breaker) tells us when
      // to come back; honoring it beats hammering the shared bottleneck.
      if (const auto ra = response.headers.get("Retry-After")) {
        const long secs = std::strtol(std::string(*ra).c_str(), nullptr, 10);
        if (secs > 0) {
          const sim::Time hinted = sim::seconds(secs);
          if (hinted > delay) {
            delay = hinted;
            ++stats_.retry_after_honored;
          }
        }
      }
      retry.not_before = host_.event_queue().now() + delay;
      queue_.push_back(std::move(retry));
    }
    maybe_finish();
    if (!finished_) pump();
    return;
  }

  ++completed_responses_;
  if (response.status == 200) {
    ++stats_.responses_ok;
  } else if (response.status == 206) {
    ++stats_.responses_partial;
  } else if (response.status == 304) {
    ++stats_.responses_not_modified;
  } else {
    ++stats_.responses_error;
  }
  if (response.status < 400) refund_retry_token();

  if (first_visit_ && response.status == 200) {
    CacheEntry entry;
    if (const auto etag = response.headers.get("ETag")) {
      entry.etag = std::string(*etag);
    }
    if (const auto lm = response.headers.get("Last-Modified")) {
      if (const auto t = http::parse_http_date(*lm)) entry.last_modified = *t;
    }
    if (const auto ct = response.headers.get("Content-Type")) {
      entry.content_type = std::string(*ct);
    }
    if (pending.is_root) {
      // Finish ingesting the document (bytes past the last partial scan).
      scan_partial_body(response);
      stats_.html_complete_at = host_.event_queue().now();
      // The whole document is parsed: the application *knows* no further
      // requests will be generated from it, so flush the tail batch rather
      // than waiting for the 50 ms timer (the paper's explicit-flush
      // insight).
      if (config_.pipelined()) {
        for (const LanePtr& l : lanes_) {
          if (!l->closed && !l->out_buffer.empty()) {
            ++stats_.explicit_flushes;
            flush_lane(l);
          }
        }
      }
      // The decoded document moves into the cache: the robot keeps no
      // copy of the HTML once the root is complete. Trimming the growth
      // slack first keeps the cached entry the document's size.
      html_text_.shrink_to_fit();
      entry.body.append(buf::Bytes(std::move(html_text_)));
      html_text_.clear();
    } else {
      if (stats_.first_image_done_at == 0) {
        stats_.first_image_done_at = host_.event_queue().now();
      }
      entry.body = std::move(response.body);
    }
    cache_.store(pending.target, std::move(entry));
  }

  // HTTP/1.0 without keep-alive: this lane is done (the server will close;
  // close our half right away and never reuse the lane).
  if (!config_.http11()) {
    const bool keep_alive =
        response.headers.has_token("Connection", "keep-alive");
    if (!keep_alive) {
      lane->conn->shutdown_send();
      lane->closed = true;
      std::erase(lanes_, lane);
    }
  }

  maybe_finish();
  if (!finished_) pump();
}

sim::Time Robot::backoff_delay(unsigned attempts) {
  if (config_.retry_backoff <= 0 || attempts == 0) return 0;
  const unsigned shift = std::min(attempts - 1, 6u);
  sim::Time delay = config_.retry_backoff << shift;
  if (config_.retry_jitter > 0.0) {
    // De-phase clients hit by the same shared fault: without jitter, every
    // victim of a bottleneck flap re-issues on the same tick and the retry
    // wave re-congests the link the moment it heals.
    delay = static_cast<sim::Time>(static_cast<double>(delay) *
                                   retry_rng_.jitter(config_.retry_jitter));
  }
  return std::min(delay, kRetryBackoffCap);
}

bool Robot::consume_retry_token() {
  if (config_.retry_budget == 0) return true;
  if (retry_tokens_ == 0) {
    ++stats_.retry_budget_exhausted;
    return false;
  }
  --retry_tokens_;
  ++stats_.retry_tokens_consumed;
  return true;
}

void Robot::refund_retry_token() {
  if (config_.retry_budget == 0) return;
  if (retry_tokens_ < config_.retry_budget) {
    ++retry_tokens_;
    ++stats_.retry_tokens_refunded;
  }
}

bool Robot::lane_has_outstanding(const Lane& lane) const {
  return lane.h2 ? !lane.h2_outstanding.empty() : !lane.outstanding.empty();
}

bool Robot::target_in_flight(const std::string& target) const {
  for (const PendingRequest& r : queue_) {
    if (r.target == target) return true;
  }
  for (const LanePtr& l : lanes_) {
    for (const PendingRequest& r : l->outstanding) {
      if (r.target == target) return true;
    }
    for (const auto& [id, r] : l->h2_outstanding) {
      if (r.target == target) return true;
    }
  }
  return false;
}

void Robot::arm_request_deadline(const LanePtr& lane) {
  if (config_.request_deadline <= 0 || !lane->deadline_timer) return;
  if (lane->closed || !lane_has_outstanding(*lane)) {
    lane->deadline_timer->cancel();
    return;
  }
  std::weak_ptr<Lane> weak = lane;
  lane->deadline_timer->arm(config_.request_deadline, [this, weak] {
    if (auto l = weak.lock(); l && !l->closed) {
      // The head response made no progress for a whole deadline period
      // (e.g. a wedged server holding the connection open). Abort the
      // connection and recover through the usual requeue path.
      l->closed = true;
      ++stats_.request_deadlines_fired;
      l->conn->abort();
      on_lane_closed(l, LaneClose::kDeadline);
    }
  });
}

void Robot::fail_request(const PendingRequest& request, FailureKind kind) {
  ++completed_responses_;
  ++stats_.requests_failed;
  stats_.failures.push_back({request.target, kind, request.attempts});
}

void Robot::on_lane_closed(const LanePtr& lane, LaneClose cause) {
  if (finished_) return;
  lane->flush_timer->cancel();
  if (lane->deadline_timer) lane->deadline_timer->cancel();
  if (cause == LaneClose::kConnectFailure) ++stats_.connect_failures;
  if (cause == LaneClose::kTransportFailure) ++stats_.transport_failures;

  // Unanswered requests (sent but no response) go back on the queue. Only
  // "charged" requests cost an attempt + retry token: a server that serves N
  // requests then closes (e.g. Apache 1.2b2's 5-request limit) makes
  // progress each cycle, so the rest are victims, not failures.
  const sim::Time now = host_.event_queue().now();
  auto requeue_one = [&](PendingRequest req, bool charged) {
    if (!charged) {
      req.from_push = false;  // an interrupted push re-issues as a plain GET
      req.not_before = 0;     // victims re-issue immediately
      queue_.push_back(std::move(req));
      return;
    }
    if (++req.attempts >= config_.max_attempts) {
      ++stats_.responses_error;
      FailureKind kind = FailureKind::kConnectionLost;
      switch (cause) {
        case LaneClose::kConnectFailure:
          kind = FailureKind::kConnectFailure;
          break;
        case LaneClose::kTransportFailure:
          kind = FailureKind::kTransportFailure;
          break;
        case LaneClose::kDeadline:
          kind = FailureKind::kRequestDeadline;
          break;
        case LaneClose::kGraceful:
        case LaneClose::kReset:
          break;
      }
      fail_request(req, kind);
      return;
    }
    if (!consume_retry_token()) {
      fail_request(req, FailureKind::kRetryBudgetExhausted);
      return;
    }
    if (cause == LaneClose::kReset) {
      ++stats_.retries_after_reset;
    } else if (cause == LaneClose::kGraceful) {
      ++stats_.retries_after_close;
    }
    req.not_before = now + backoff_delay(req.attempts);
    queue_.push_back(std::move(req));
  };

  if (lane->h2) {
    // GOAWAY partitions the in-flight streams: ids above the server's
    // last_stream_id were provably never processed, so they retry free of
    // attempt charges; ids at or below it may have consumed server work and
    // are charged like the pipeline head. Without a GOAWAY (pure transport
    // loss) only the lowest open stream is charged, mirroring HTTP/1.x.
    const bool goaway = lane->h2->goaway_received();
    const std::uint32_t last = goaway ? lane->h2->peer_last_stream_id() : 0;
    bool head = true;
    for (auto& [id, req] : lane->h2_outstanding) {
      const bool charged = !req.from_push && (goaway ? id <= last : head);
      head = false;
      requeue_one(std::move(req), charged);
    }
    lane->h2_outstanding.clear();
  } else {
    bool head = true;
    for (PendingRequest& req : lane->outstanding) {
      requeue_one(std::move(req), head);
      head = false;
    }
    lane->outstanding.clear();
  }
  std::erase(lanes_, lane);
  maybe_finish();
  if (!finished_) pump();
}

void Robot::on_page_deadline() {
  if (finished_) return;
  finished_ = true;
  stats_.page_deadline_hit = true;
  stats_.complete = false;
  stats_.finished = host_.event_queue().now();
  retry_timer_.cancel();
  // Everything still unresolved is attributed to the page deadline.
  for (const PendingRequest& req : queue_) {
    ++stats_.requests_failed;
    stats_.failures.push_back(
        {req.target, FailureKind::kPageDeadline, req.attempts});
  }
  queue_.clear();
  for (const LanePtr& lane : lanes_) {
    lane->flush_timer->cancel();
    if (lane->deadline_timer) lane->deadline_timer->cancel();
    for (const PendingRequest& req : lane->outstanding) {
      ++stats_.requests_failed;
      stats_.failures.push_back(
          {req.target, FailureKind::kPageDeadline, req.attempts});
    }
    lane->outstanding.clear();
    for (const auto& [id, req] : lane->h2_outstanding) {
      ++stats_.requests_failed;
      stats_.failures.push_back(
          {req.target, FailureKind::kPageDeadline, req.attempts});
    }
    lane->h2_outstanding.clear();
    if (!lane->closed) {
      lane->closed = true;
      lane->conn->abort();
    }
  }
  lanes_.clear();
  if (done_) done_();
}

void Robot::maybe_finish() {
  if (finished_) return;
  if (completed_responses_ < expected_responses_ || !queue_.empty()) return;
  finished_ = true;
  stats_.complete = (stats_.requests_failed == 0);
  stats_.finished = host_.event_queue().now();
  retry_timer_.cancel();
  page_timer_.cancel();
  for (const LanePtr& lane : lanes_) {
    lane->flush_timer->cancel();
    if (lane->deadline_timer) lane->deadline_timer->cancel();
    if (!lane->closed) {
      // Announce a clean end of session before the FIN so the server's
      // forensics see an orderly GOAWAY rather than a bare half-close.
      if (lane->h2) lane->h2->send_goaway(h2::ErrorCode::kNoError);
      lane->conn->shutdown_send();
    }
  }
  if (done_) done_();
}

}  // namespace hsim::client
