#include "h2/session.hpp"

#include <algorithm>
#include <cctype>

namespace hsim::h2 {

namespace {

std::string frame_metric_suffix(FrameType t) {
  std::string s(to_string(t));
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

constexpr std::uint8_t kAllFrameTypes[] = {
    static_cast<std::uint8_t>(FrameType::kData),
    static_cast<std::uint8_t>(FrameType::kHeaders),
    static_cast<std::uint8_t>(FrameType::kRstStream),
    static_cast<std::uint8_t>(FrameType::kSettings),
    static_cast<std::uint8_t>(FrameType::kPushPromise),
    static_cast<std::uint8_t>(FrameType::kGoAway),
    static_cast<std::uint8_t>(FrameType::kWindowUpdate),
};

}  // namespace

Session::Metrics Session::Metrics::bind() {
  Metrics m;
  if (obs::registry() == nullptr) return m;
  for (std::uint8_t t : kAllFrameTypes) {
    const std::string suffix = frame_metric_suffix(static_cast<FrameType>(t));
    m.frames_sent[t] = obs::counter_handle("h2.frames_sent." + suffix);
    m.frames_received[t] = obs::counter_handle("h2.frames_received." + suffix);
  }
  m.data_bytes_sent = obs::counter_handle("h2.data_bytes_sent");
  m.data_bytes_received = obs::counter_handle("h2.data_bytes_received");
  m.flow_stalls = obs::counter_handle("h2.flow_stalls");
  m.streams_opened = obs::counter_handle("h2.streams_opened");
  m.pushes_promised = obs::counter_handle("h2.pushes_promised");
  m.pushes_accepted = obs::counter_handle("h2.pushes_accepted");
  m.pushes_reset = obs::counter_handle("h2.pushes_reset");
  m.goaways_sent = obs::counter_handle("h2.goaways_sent");
  m.goaways_received = obs::counter_handle("h2.goaways_received");
  m.conn_errors = obs::counter_handle("h2.conn_errors");
  return m;
}

Session::Session(SessionConfig config, WriteFn write)
    : config_(config),
      write_(std::move(write)),
      metrics_(Metrics::bind()),
      next_local_id_(config.is_server ? 2 : 1) {
  if (!config_.is_server) {
    buf::Chain preface;
    preface.append_copy(kClientPreface);
    write_(std::move(preface));
  }
  Frame settings;
  settings.type = FrameType::kSettings;
  settings.payload = encode_settings_payload({
      {kSettingsEnablePush, config_.enable_push ? 1u : 0u},
      {kSettingsMaxConcurrentStreams, kDefaultMaxConcurrentStreams},
      {kSettingsInitialWindowSize, kDefaultInitialWindow},
      {kSettingsMaxFrameSize, kDefaultMaxFrameSize},
  });
  emit(std::move(settings));
}

// ---------------------------------------------------------------------------
// Stream bookkeeping
// ---------------------------------------------------------------------------

Session::Stream& Session::open_stream(std::uint32_t id, bool is_push,
                                      std::uint8_t weight) {
  Stream s;
  s.id = id;
  s.weight = weight;
  s.is_push = is_push;
  s.send_window = peer_initial_window_;
  s.recv_window = kDefaultInitialWindow;
  stats_.streams_opened++;
  metrics_.streams_opened.inc();
  return streams_.emplace(id, std::move(s)).first->second;
}

Session::Stream* Session::find(std::uint32_t id) {
  auto it = streams_.find(id);
  return it == streams_.end() ? nullptr : &it->second;
}

const Session::Stream* Session::find(std::uint32_t id) const {
  auto it = streams_.find(id);
  return it == streams_.end() ? nullptr : &it->second;
}

namespace {
bool is_closed(bool reset, bool local_closed, bool remote_closed) {
  return reset || (local_closed && remote_closed);
}
}  // namespace

bool Session::was_opened(std::uint32_t id) const {
  const bool local = (id & 1) == (config_.is_server ? 0u : 1u);
  return local ? id < next_local_id_ : id <= highest_peer_id_;
}

bool Session::stream_closed(std::uint32_t id) const {
  const Stream* s = find(id);
  if (s == nullptr) return was_opened(id);
  return is_closed(s->reset, s->local_closed, s->remote_closed);
}

void Session::half_close(Stream& s, bool local) {
  (local ? s.local_closed : s.remote_closed) = true;
  if (s.local_closed && s.remote_closed) closed_ids_.push_back(s.id);
}

void Session::forget_closed_streams() {
  for (const std::uint32_t id : closed_ids_) {
    // A reset stream stays: DATA the peer sent before seeing our RST must
    // still find it and hand its connection window back. (A stream closes
    // locally only once its send queue has drained.)
    if (const auto it = streams_.find(id);
        it != streams_.end() && !it->second.reset) {
      streams_.erase(it);
    }
  }
  closed_ids_.clear();
}

bool Session::stream_was_reset(std::uint32_t id) const {
  const Stream* s = find(id);
  return s != nullptr && s->reset;
}

const http::Response* Session::stream_partial(std::uint32_t id) const {
  const Stream* s = find(id);
  if (s == nullptr || !s->headers_received) return nullptr;
  return &s->response;
}

std::optional<std::int64_t> Session::stream_send_window(
    std::uint32_t id) const {
  const Stream* s = find(id);
  if (s == nullptr) return std::nullopt;
  return s->send_window;
}

std::size_t Session::open_stream_count() const {
  std::size_t n = 0;
  for (const auto& [id, s] : streams_)
    if (!is_closed(s.reset, s.local_closed, s.remote_closed)) ++n;
  return n;
}

std::size_t Session::queued_send_bytes() const {
  std::size_t n = 0;
  for (const auto& [id, s] : streams_) n += s.send_queue.size();
  return n;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void Session::emit(Frame frame) {
  stats_.frames_sent++;
  metrics_.frames_sent[static_cast<std::uint8_t>(frame.type)].inc();
  write_(encode_frame(frame));
}

Session::Stream* Session::pick_next_stream() {
  if (conn_send_window_ <= 0) return nullptr;
  bool any = false;
  std::uint8_t best_weight = 0;
  for (const auto& [id, s] : streams_) {
    if (s.reset || s.send_queue.empty() || s.send_window <= 0) continue;
    if (!any || s.weight > best_weight) {
      best_weight = s.weight;
      any = true;
    }
  }
  if (!any) return nullptr;
  std::uint32_t last = 0;
  if (auto it = rr_last_.find(best_weight); it != rr_last_.end())
    last = it->second;
  Stream* first_eligible = nullptr;
  Stream* after_last = nullptr;
  for (auto& [id, s] : streams_) {
    if (s.reset || s.send_queue.empty() || s.send_window <= 0 ||
        s.weight != best_weight)
      continue;
    if (first_eligible == nullptr) first_eligible = &s;
    if (id > last && after_last == nullptr) {
      after_last = &s;
      break;
    }
  }
  Stream* chosen = after_last != nullptr ? after_last : first_eligible;
  rr_last_[best_weight] = chosen->id;
  return chosen;
}

void Session::pump_streams() {
  while (Stream* s = pick_next_stream()) {
    std::size_t n = s->send_queue.size();
    n = std::min(n, static_cast<std::size_t>(peer_max_frame_size_));
    n = std::min(n, static_cast<std::size_t>(s->send_window));
    n = std::min(n, static_cast<std::size_t>(conn_send_window_));
    Frame f;
    f.type = FrameType::kData;
    f.stream_id = s->id;
    f.payload = s->send_queue.split_front(n);
    const bool fin = s->send_queue.empty() && s->end_after_send;
    if (fin) f.flags |= kFlagEndStream;
    s->send_window -= static_cast<std::int64_t>(n);
    conn_send_window_ -= static_cast<std::int64_t>(n);
    s->stalled = false;
    stats_.data_bytes_sent += n;
    metrics_.data_bytes_sent.inc(n);
    emit(std::move(f));
    if (fin) half_close(*s, /*local=*/true);
  }
  note_stalls();
}

void Session::note_stalls() {
  for (auto& [id, s] : streams_) {
    if (s.reset || s.send_queue.empty() || s.stalled) continue;
    if (s.send_window <= 0 || conn_send_window_ <= 0) {
      s.stalled = true;
      stats_.flow_stalls++;
      metrics_.flow_stalls.inc();
    }
  }
}

// ---------------------------------------------------------------------------
// Public senders
// ---------------------------------------------------------------------------

std::uint32_t Session::submit_request(const http::Request& req,
                                      std::uint8_t weight) {
  const std::uint32_t id = next_local_id_;
  next_local_id_ += 2;
  Stream& s = open_stream(id, /*is_push=*/false, weight);
  Frame f;
  f.type = FrameType::kHeaders;
  // Simulated workloads (GET / conditional GET / HEAD) carry no request
  // body, so the request fits one HEADERS frame with END_STREAM.
  f.flags = kFlagEndHeaders | kFlagEndStream;
  f.stream_id = id;
  f.payload = encode_request_block(req);
  half_close(s, /*local=*/true);
  emit(std::move(f));
  return id;
}

void Session::submit_response(std::uint32_t stream_id,
                              const http::Response& res) {
  Stream* s = find(stream_id);
  if (s == nullptr || s->reset || failed()) return;
  Frame f;
  f.type = FrameType::kHeaders;
  f.flags = kFlagEndHeaders;
  f.stream_id = stream_id;
  f.payload = encode_response_block(res);
  const bool has_body = !res.status_forbids_body() && !res.body.empty();
  if (!has_body) f.flags |= kFlagEndStream;
  emit(std::move(f));
  if (has_body) {
    s->send_queue.append(res.body);
    s->end_after_send = true;
    pump_streams();
  } else {
    half_close(*s, /*local=*/true);
  }
  // Inside receive() a handler may still hold a Stream&; the outermost
  // receive() forgets the closed streams on its way out instead.
  if (!in_receive_) forget_closed_streams();
}

std::optional<std::uint32_t> Session::promise_push(std::uint32_t parent_stream,
                                                   const http::Request& req,
                                                   std::uint8_t weight) {
  if (!peer_enable_push_ || goaway_sent_ || goaway_received_ || failed())
    return std::nullopt;
  Stream* parent = find(parent_stream);
  if (parent == nullptr || parent->reset) return std::nullopt;
  const std::uint32_t id = next_local_id_;
  next_local_id_ += 2;
  Frame f;
  f.type = FrameType::kPushPromise;
  f.flags = kFlagEndHeaders;
  f.stream_id = parent_stream;
  f.payload = encode_push_promise_payload(id, req);
  Stream& s = open_stream(id, /*is_push=*/true, weight);
  // The client never sends on a promised stream.
  half_close(s, /*local=*/false);
  stats_.pushes_promised++;
  metrics_.pushes_promised.inc();
  emit(std::move(f));
  return id;
}

void Session::push_response(std::uint32_t promised_id,
                            const http::Response& res) {
  submit_response(promised_id, res);
}

void Session::reset_stream(std::uint32_t id, ErrorCode code) {
  if (failed()) return;
  Frame f;
  f.type = FrameType::kRstStream;
  f.stream_id = id;
  f.payload = encode_rst_payload(code);
  if (Stream* s = find(id)) {
    s->reset = true;
    s->send_queue.clear();
    s->end_after_send = false;
  }
  emit(std::move(f));
}

void Session::send_goaway(ErrorCode code) {
  if (goaway_sent_) return;
  goaway_sent_ = true;
  Frame f;
  f.type = FrameType::kGoAway;
  f.payload = encode_goaway_payload(
      GoAway{last_processed_peer_id_, static_cast<std::uint32_t>(code)});
  stats_.goaways_sent++;
  metrics_.goaways_sent.inc();
  emit(std::move(f));
}

void Session::connection_error(ErrorCode code, std::string message) {
  if (error_) return;
  error_ = DecodeError{code, std::move(message)};
  stats_.conn_errors++;
  metrics_.conn_errors.inc();
  // Announce the failure even if a clean GOAWAY already went out — the
  // error code is the attribution the peer's forensics key on.
  goaway_sent_ = false;
  send_goaway(code);
  if (on_connection_error) on_connection_error(*error_);
}

// ---------------------------------------------------------------------------
// Input
// ---------------------------------------------------------------------------

void Session::receive(buf::Chain data) {
  if (failed()) return;
  const bool outermost = !in_receive_;
  in_receive_ = true;
  decoder_.feed(std::move(data));
  while (!failed()) {
    std::optional<Frame> frame = decoder_.next();
    if (!frame) break;
    stats_.frames_received++;
    metrics_.frames_received[static_cast<std::uint8_t>(frame->type)].inc();
    switch (frame->type) {
      case FrameType::kData: handle_data(*frame); break;
      case FrameType::kHeaders: handle_headers(*frame); break;
      case FrameType::kRstStream: handle_rst(*frame); break;
      case FrameType::kSettings: handle_settings(*frame); break;
      case FrameType::kPushPromise: handle_push_promise(*frame); break;
      case FrameType::kGoAway: handle_goaway(*frame); break;
      case FrameType::kWindowUpdate: handle_window_update(*frame); break;
    }
  }
  if (decoder_.failed() && !error_) {
    const DecodeError err = *decoder_.error();
    connection_error(err.code, err.message);
  }
  if (outermost) {
    in_receive_ = false;
    forget_closed_streams();
  }
}

void Session::handle_settings(const Frame& f) {
  if (f.has_flag(kFlagAck)) return;
  auto settings = parse_settings_payload(f.payload);
  if (!settings) {
    connection_error(ErrorCode::kFrameSizeError, "malformed SETTINGS");
    return;
  }
  for (const Setting& s : *settings) {
    switch (s.id) {
      case kSettingsEnablePush:
        if (s.value > 1) {
          connection_error(ErrorCode::kProtocolError,
                           "ENABLE_PUSH must be 0 or 1");
          return;
        }
        peer_enable_push_ = s.value == 1;
        break;
      case kSettingsMaxConcurrentStreams:
        peer_max_concurrent_ = s.value;
        break;
      case kSettingsInitialWindowSize: {
        if (s.value > static_cast<std::uint32_t>(kMaxWindow)) {
          connection_error(ErrorCode::kFlowControlError,
                           "INITIAL_WINDOW_SIZE exceeds 2^31-1");
          return;
        }
        const std::int64_t delta =
            static_cast<std::int64_t>(s.value) - peer_initial_window_;
        peer_initial_window_ = static_cast<std::int64_t>(s.value);
        for (auto& [id, st] : streams_) {
          if (st.reset) continue;
          st.send_window += delta;
          if (st.send_window > kMaxWindow) {
            connection_error(ErrorCode::kFlowControlError,
                             "stream window overflow via SETTINGS");
            return;
          }
        }
        break;
      }
      case kSettingsMaxFrameSize:
        if (s.value == 0) {
          connection_error(ErrorCode::kProtocolError, "MAX_FRAME_SIZE of 0");
          return;
        }
        peer_max_frame_size_ = s.value;
        break;
      default:
        break;  // unknown settings are ignored
    }
  }
  Frame ack;
  ack.type = FrameType::kSettings;
  ack.flags = kFlagAck;
  emit(std::move(ack));
  pump_streams();
}

void Session::handle_window_update(const Frame& f) {
  const std::uint32_t inc = *parse_window_update_payload(f.payload);
  if (inc == 0) {
    connection_error(ErrorCode::kProtocolError, "zero window increment");
    return;
  }
  if (f.stream_id == 0) {
    conn_send_window_ += inc;
    if (conn_send_window_ > kMaxWindow) {
      connection_error(ErrorCode::kFlowControlError,
                       "connection window overflow");
      return;
    }
  } else {
    Stream* s = find(f.stream_id);
    if (s == nullptr && !was_opened(f.stream_id)) {
      connection_error(ErrorCode::kProtocolError,
                       "WINDOW_UPDATE on idle stream " +
                           std::to_string(f.stream_id));
      return;
    }
    if (s == nullptr ||
        is_closed(s->reset, s->local_closed, s->remote_closed))
      return;  // late update for a finished (or forgotten) stream
    s->send_window += inc;
    if (s->send_window > kMaxWindow) {
      connection_error(ErrorCode::kFlowControlError,
                       "stream window overflow");
      return;
    }
  }
  pump_streams();
}

void Session::account_receive(Stream* s, std::size_t n) {
  if (n == 0) return;
  const std::uint32_t half = kDefaultInitialWindow / 2;
  conn_recv_consumed_ += static_cast<std::uint32_t>(n);
  if (conn_recv_consumed_ >= half) {
    Frame wu;
    wu.type = FrameType::kWindowUpdate;
    wu.payload = encode_window_update_payload(conn_recv_consumed_);
    conn_recv_window_ += conn_recv_consumed_;
    conn_recv_consumed_ = 0;
    emit(std::move(wu));
  }
  if (s != nullptr && !s->remote_closed && !s->reset) {
    s->recv_consumed += static_cast<std::uint32_t>(n);
    if (s->recv_consumed >= half) {
      Frame wu;
      wu.type = FrameType::kWindowUpdate;
      wu.stream_id = s->id;
      wu.payload = encode_window_update_payload(s->recv_consumed);
      s->recv_window += s->recv_consumed;
      s->recv_consumed = 0;
      emit(std::move(wu));
    }
  }
}

void Session::handle_data(Frame& f) {
  const std::size_t n = f.payload.size();
  conn_recv_window_ -= static_cast<std::int64_t>(n);
  if (conn_recv_window_ < 0) {
    connection_error(ErrorCode::kFlowControlError,
                     "DATA overruns connection window");
    return;
  }
  Stream* s = find(f.stream_id);
  if (s == nullptr) {
    connection_error(ErrorCode::kProtocolError,
                     was_opened(f.stream_id)
                         ? std::string("DATA on closed stream")
                         : "DATA on idle stream " +
                               std::to_string(f.stream_id));
    return;
  }
  if (s->reset) {
    // In-flight data for a stream we cancelled: discard the payload but
    // return the connection window the peer charged for it.
    account_receive(nullptr, n);
    return;
  }
  if (s->remote_closed) {
    connection_error(ErrorCode::kProtocolError, "DATA on closed stream");
    return;
  }
  s->recv_window -= static_cast<std::int64_t>(n);
  if (s->recv_window < 0) {
    connection_error(ErrorCode::kFlowControlError,
                     "DATA overruns stream window");
    return;
  }
  if (!config_.is_server && !s->headers_received) {
    connection_error(ErrorCode::kProtocolError, "DATA before HEADERS");
    return;
  }
  stats_.data_bytes_received += n;
  metrics_.data_bytes_received.inc(n);
  const bool fin = f.has_flag(kFlagEndStream);
  if (config_.is_server) {
    f.payload.for_each([&](std::span<const std::uint8_t> run) {
      s->request.body.insert(s->request.body.end(), run.begin(), run.end());
    });
  } else {
    s->response.body.append(std::move(f.payload));
  }
  account_receive(fin ? nullptr : s, n);
  if (!config_.is_server && on_stream_data) on_stream_data(s->id, n);
  if (fin) {
    half_close(*s, /*local=*/false);
    if (config_.is_server) {
      last_processed_peer_id_ = std::max(last_processed_peer_id_, s->id);
      if (on_request) on_request(s->id, std::move(s->request));
    } else if (s->is_push) {
      if (on_push_response) on_push_response(s->id, std::move(s->response));
    } else {
      if (on_response) on_response(s->id, std::move(s->response));
    }
  }
}

void Session::handle_headers(const Frame& f) {
  if (config_.is_server) {
    // A new client-initiated stream.
    if ((f.stream_id & 1) == 0 || f.stream_id <= highest_peer_id_) {
      connection_error(ErrorCode::kProtocolError,
                       "bad client stream id " + std::to_string(f.stream_id));
      return;
    }
    highest_peer_id_ = f.stream_id;
    auto req = decode_request_block(f.payload);
    if (!req) {
      connection_error(ErrorCode::kProtocolError,
                       "malformed request header block");
      return;
    }
    if (goaway_sent_ ||
        open_stream_count() >= kDefaultMaxConcurrentStreams) {
      // Refused before any processing: the client may retry elsewhere.
      Frame rst;
      rst.type = FrameType::kRstStream;
      rst.stream_id = f.stream_id;
      rst.payload = encode_rst_payload(ErrorCode::kRefusedStream);
      emit(std::move(rst));
      return;
    }
    Stream& s = open_stream(f.stream_id, /*is_push=*/false, 16);
    if (f.has_flag(kFlagEndStream)) {
      half_close(s, /*local=*/false);
      s.request = std::move(*req);
      last_processed_peer_id_ = std::max(last_processed_peer_id_, s.id);
      if (on_request) on_request(s.id, std::move(s.request));
    } else {
      s.request = std::move(*req);  // body follows in DATA frames
    }
    return;
  }
  // Client side: response headers on a stream we opened or were promised.
  Stream* s = find(f.stream_id);
  if (s == nullptr && !was_opened(f.stream_id)) {
    connection_error(ErrorCode::kProtocolError,
                     "HEADERS on idle stream " + std::to_string(f.stream_id));
    return;
  }
  if (s != nullptr && s->reset) return;  // in-flight response, cancelled push
  if (s == nullptr || s->headers_received) {
    connection_error(ErrorCode::kProtocolError, "duplicate HEADERS");
    return;
  }
  auto res = decode_response_block(f.payload);
  if (!res) {
    connection_error(ErrorCode::kProtocolError,
                     "malformed response header block");
    return;
  }
  s->headers_received = true;
  s->response = std::move(*res);
  if (f.has_flag(kFlagEndStream)) {
    half_close(*s, /*local=*/false);
    if (s->is_push) {
      if (on_push_response) on_push_response(s->id, std::move(s->response));
    } else {
      if (on_response) on_response(s->id, std::move(s->response));
    }
  }
}

void Session::handle_push_promise(const Frame& f) {
  if (config_.is_server) {
    connection_error(ErrorCode::kProtocolError,
                     "PUSH_PROMISE from a client");
    return;
  }
  auto promise = parse_push_promise_payload(f.payload);
  if (!promise) {
    connection_error(ErrorCode::kProtocolError, "malformed PUSH_PROMISE");
    return;
  }
  if ((promise->promised_id & 1) != 0 ||
      promise->promised_id <= highest_peer_id_) {
    connection_error(ErrorCode::kProtocolError,
                     "bad promised stream id " +
                         std::to_string(promise->promised_id));
    return;
  }
  Stream* parent = find(f.stream_id);
  if (parent == nullptr) {
    connection_error(ErrorCode::kProtocolError,
                     was_opened(f.stream_id) ? "PUSH_PROMISE on closed stream"
                                             : "PUSH_PROMISE on idle stream");
    return;
  }
  highest_peer_id_ = promise->promised_id;
  Stream& s = open_stream(promise->promised_id, /*is_push=*/true, 8);
  half_close(s, /*local=*/true);  // we never send on a promised stream
  const bool accept =
      config_.enable_push &&
      (!on_push_promise || on_push_promise(s.id, promise->request));
  if (accept) {
    stats_.pushes_accepted++;
    metrics_.pushes_accepted.inc();
  } else {
    stats_.pushes_reset++;
    metrics_.pushes_reset.inc();
    reset_stream(s.id, ErrorCode::kCancel);
  }
}

void Session::handle_rst(const Frame& f) {
  const std::uint32_t code = *parse_rst_payload(f.payload);
  Stream* s = find(f.stream_id);
  if (s == nullptr) return;  // already forgotten — benign
  if (s->reset) return;
  s->reset = true;
  s->send_queue.clear();
  s->end_after_send = false;
  if (on_stream_reset)
    on_stream_reset(f.stream_id, static_cast<ErrorCode>(code));
}

void Session::handle_goaway(const Frame& f) {
  const GoAway g = *parse_goaway_payload(f.payload);
  goaway_received_ = true;
  peer_goaway_ = g;
  stats_.goaways_received++;
  metrics_.goaways_received.inc();
  if (on_goaway) on_goaway(g);
}

}  // namespace hsim::h2
