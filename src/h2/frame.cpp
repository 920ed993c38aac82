#include "h2/frame.hpp"

#include <array>

namespace hsim::h2 {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

std::uint32_t read_u32(const buf::Chain& c, std::size_t pos) {
  std::array<std::uint8_t, 4> b{};
  c.copy_to(pos, b);
  return (static_cast<std::uint32_t>(b[0]) << 24) |
         (static_cast<std::uint32_t>(b[1]) << 16) |
         (static_cast<std::uint32_t>(b[2]) << 8) |
         static_cast<std::uint32_t>(b[3]);
}

void put_entry(std::vector<std::uint8_t>& out, std::string_view name,
               std::string_view value) {
  put_u16(out, static_cast<std::uint16_t>(name.size()));
  out.insert(out.end(), name.begin(), name.end());
  put_u16(out, static_cast<std::uint16_t>(value.size()));
  out.insert(out.end(), value.begin(), value.end());
}

/// Decodes one length-prefixed block into name/value pairs; nullopt on a
/// truncated entry.
std::optional<std::vector<std::pair<std::string, std::string>>> decode_entries(
    const buf::Chain& block) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t pos = 0;
  const std::size_t n = block.size();
  while (pos < n) {
    if (pos + 2 > n) return std::nullopt;
    std::array<std::uint8_t, 2> len{};
    block.copy_to(pos, len);
    std::size_t name_len = (static_cast<std::size_t>(len[0]) << 8) | len[1];
    pos += 2;
    if (pos + name_len > n) return std::nullopt;
    std::string name = block.to_string(pos, name_len);
    pos += name_len;
    if (pos + 2 > n) return std::nullopt;
    block.copy_to(pos, len);
    std::size_t val_len = (static_cast<std::size_t>(len[0]) << 8) | len[1];
    pos += 2;
    if (pos + val_len > n) return std::nullopt;
    std::string value = block.to_string(pos, val_len);
    pos += val_len;
    out.emplace_back(std::move(name), std::move(value));
  }
  return out;
}

}  // namespace

std::string_view to_string(FrameType t) {
  switch (t) {
    case FrameType::kData: return "DATA";
    case FrameType::kHeaders: return "HEADERS";
    case FrameType::kRstStream: return "RST_STREAM";
    case FrameType::kSettings: return "SETTINGS";
    case FrameType::kPushPromise: return "PUSH_PROMISE";
    case FrameType::kGoAway: return "GOAWAY";
    case FrameType::kWindowUpdate: return "WINDOW_UPDATE";
  }
  return "?";
}

bool is_known_frame_type(std::uint8_t t) {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kData:
    case FrameType::kHeaders:
    case FrameType::kRstStream:
    case FrameType::kSettings:
    case FrameType::kPushPromise:
    case FrameType::kGoAway:
    case FrameType::kWindowUpdate:
      return true;
  }
  return false;
}

buf::Chain encode_frame(const Frame& frame) {
  std::array<std::uint8_t, kFrameHeaderSize> hdr{};
  const std::size_t len = frame.payload.size();
  hdr[0] = static_cast<std::uint8_t>((len >> 16) & 0xFF);
  hdr[1] = static_cast<std::uint8_t>((len >> 8) & 0xFF);
  hdr[2] = static_cast<std::uint8_t>(len & 0xFF);
  hdr[3] = static_cast<std::uint8_t>(frame.type);
  hdr[4] = frame.flags;
  hdr[5] = static_cast<std::uint8_t>((frame.stream_id >> 24) & 0x7F);
  hdr[6] = static_cast<std::uint8_t>((frame.stream_id >> 16) & 0xFF);
  hdr[7] = static_cast<std::uint8_t>((frame.stream_id >> 8) & 0xFF);
  hdr[8] = static_cast<std::uint8_t>(frame.stream_id & 0xFF);
  buf::Chain out;
  out.append_copy(std::span<const std::uint8_t>(hdr.data(), hdr.size()));
  out.append(frame.payload);
  return out;
}

buf::Chain encode_settings_payload(const std::vector<Setting>& settings) {
  std::vector<std::uint8_t> out;
  out.reserve(settings.size() * 6);
  for (const Setting& s : settings) {
    put_u16(out, s.id);
    put_u32(out, s.value);
  }
  return buf::Chain(buf::Bytes(std::move(out)));
}

std::optional<std::vector<Setting>> parse_settings_payload(
    const buf::Chain& payload) {
  if (payload.size() % 6 != 0) return std::nullopt;
  std::vector<Setting> out;
  for (std::size_t pos = 0; pos < payload.size(); pos += 6) {
    std::array<std::uint8_t, 2> id{};
    payload.copy_to(pos, id);
    out.push_back(Setting{
        static_cast<std::uint16_t>((static_cast<std::uint16_t>(id[0]) << 8) |
                                   id[1]),
        read_u32(payload, pos + 2)});
  }
  return out;
}

buf::Chain encode_window_update_payload(std::uint32_t increment) {
  std::vector<std::uint8_t> out;
  put_u32(out, increment & 0x7FFFFFFF);
  return buf::Chain(buf::Bytes(std::move(out)));
}

std::optional<std::uint32_t> parse_window_update_payload(
    const buf::Chain& payload) {
  if (payload.size() != 4) return std::nullopt;
  return read_u32(payload, 0) & 0x7FFFFFFF;
}

buf::Chain encode_rst_payload(ErrorCode code) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(code));
  return buf::Chain(buf::Bytes(std::move(out)));
}

std::optional<std::uint32_t> parse_rst_payload(const buf::Chain& payload) {
  if (payload.size() != 4) return std::nullopt;
  return read_u32(payload, 0);
}

buf::Chain encode_goaway_payload(const GoAway& g) {
  std::vector<std::uint8_t> out;
  put_u32(out, g.last_stream_id & 0x7FFFFFFF);
  put_u32(out, g.error_code);
  return buf::Chain(buf::Bytes(std::move(out)));
}

std::optional<GoAway> parse_goaway_payload(const buf::Chain& payload) {
  if (payload.size() < 8) return std::nullopt;
  GoAway g;
  g.last_stream_id = read_u32(payload, 0) & 0x7FFFFFFF;
  g.error_code = read_u32(payload, 4);
  return g;
}

buf::Chain encode_request_block(const http::Request& req) {
  std::vector<std::uint8_t> out;
  put_entry(out, ":method", http::to_string(req.method));
  put_entry(out, ":path", req.target);
  for (const auto& [name, value] : req.headers.items())
    put_entry(out, name, value);
  return buf::Chain(buf::Bytes(std::move(out)));
}

buf::Chain encode_response_block(const http::Response& res) {
  std::vector<std::uint8_t> out;
  put_entry(out, ":status", std::to_string(res.status));
  for (const auto& [name, value] : res.headers.items())
    put_entry(out, name, value);
  return buf::Chain(buf::Bytes(std::move(out)));
}

std::optional<http::Request> decode_request_block(const buf::Chain& block) {
  auto entries = decode_entries(block);
  if (!entries) return std::nullopt;
  http::Request req;
  req.version = http::Version::kHttp11;
  bool saw_method = false, saw_path = false;
  for (auto& [name, value] : *entries) {
    if (name == ":method") {
      auto m = http::parse_method(value);
      if (!m) return std::nullopt;
      req.method = *m;
      saw_method = true;
    } else if (name == ":path") {
      req.target = value;
      saw_path = true;
    } else if (!name.empty() && name[0] == ':') {
      return std::nullopt;  // unknown pseudo-header
    } else {
      req.headers.add(std::move(name), std::move(value));
    }
  }
  if (!saw_method || !saw_path) return std::nullopt;
  return req;
}

std::optional<http::Response> decode_response_block(const buf::Chain& block) {
  auto entries = decode_entries(block);
  if (!entries) return std::nullopt;
  http::Response res;
  res.version = http::Version::kHttp11;
  bool saw_status = false;
  for (auto& [name, value] : *entries) {
    if (name == ":status") {
      int status = 0;
      for (char ch : value) {
        if (ch < '0' || ch > '9') return std::nullopt;
        status = status * 10 + (ch - '0');
      }
      if (status < 100 || status > 599) return std::nullopt;
      res.status = status;
      res.reason = std::string(http::default_reason(status));
      saw_status = true;
    } else if (!name.empty() && name[0] == ':') {
      return std::nullopt;
    } else {
      res.headers.add(std::move(name), std::move(value));
    }
  }
  if (!saw_status) return std::nullopt;
  return res;
}

buf::Chain encode_push_promise_payload(std::uint32_t promised_id,
                                       const http::Request& req) {
  std::vector<std::uint8_t> out;
  put_u32(out, promised_id & 0x7FFFFFFF);
  buf::Chain payload(buf::Bytes(std::move(out)));
  payload.append(encode_request_block(req));
  return payload;
}

std::optional<PushPromise> parse_push_promise_payload(
    const buf::Chain& payload) {
  if (payload.size() < 4) return std::nullopt;
  PushPromise p;
  p.promised_id = read_u32(payload, 0) & 0x7FFFFFFF;
  auto req = decode_request_block(payload.slice(4));
  if (!req) return std::nullopt;
  p.request = std::move(*req);
  return p;
}

void FrameDecoder::fail(ErrorCode code, std::string message) {
  error_ = DecodeError{code, std::move(message)};
  pending_.reset();
  input_.clear();
}

std::optional<Frame> FrameDecoder::next() {
  if (error_) return std::nullopt;
  if (!pending_) {
    if (input_.size() < kFrameHeaderSize) return std::nullopt;
    std::array<std::uint8_t, kFrameHeaderSize> hdr{};
    input_.copy_to(0, hdr);
    const std::size_t length = (static_cast<std::size_t>(hdr[0]) << 16) |
                               (static_cast<std::size_t>(hdr[1]) << 8) |
                               hdr[2];
    const std::uint8_t raw_type = hdr[3];
    const std::uint8_t flags = hdr[4];
    const std::uint32_t stream_id =
        ((static_cast<std::uint32_t>(hdr[5]) & 0x7F) << 24) |
        (static_cast<std::uint32_t>(hdr[6]) << 16) |
        (static_cast<std::uint32_t>(hdr[7]) << 8) |
        static_cast<std::uint32_t>(hdr[8]);
    if (!is_known_frame_type(raw_type)) {
      fail(ErrorCode::kProtocolError,
           "unknown frame type " + std::to_string(raw_type));
      return std::nullopt;
    }
    const FrameType type = static_cast<FrameType>(raw_type);
    if (length > max_frame_size_) {
      fail(ErrorCode::kFrameSizeError,
           std::string(to_string(type)) + " length " + std::to_string(length) +
               " exceeds max frame size " + std::to_string(max_frame_size_));
      return std::nullopt;
    }
    // Scope checks: stream frames must not land on the connection stream and
    // connection frames must not land on a stream.
    switch (type) {
      case FrameType::kData:
      case FrameType::kHeaders:
      case FrameType::kRstStream:
      case FrameType::kPushPromise:
        if (stream_id == 0) {
          fail(ErrorCode::kProtocolError,
               std::string(to_string(type)) + " on stream 0");
          return std::nullopt;
        }
        break;
      case FrameType::kSettings:
      case FrameType::kGoAway:
        if (stream_id != 0) {
          fail(ErrorCode::kProtocolError,
               std::string(to_string(type)) + " on stream " +
                   std::to_string(stream_id));
          return std::nullopt;
        }
        break;
      case FrameType::kWindowUpdate:
        break;  // valid on both scopes
    }
    // Fixed-size payload checks are attributable from the header alone.
    if (type == FrameType::kRstStream && length != 4) {
      fail(ErrorCode::kFrameSizeError, "RST_STREAM length != 4");
      return std::nullopt;
    }
    if (type == FrameType::kWindowUpdate && length != 4) {
      fail(ErrorCode::kFrameSizeError, "WINDOW_UPDATE length != 4");
      return std::nullopt;
    }
    if (type == FrameType::kSettings && length % 6 != 0) {
      fail(ErrorCode::kFrameSizeError, "SETTINGS length not a multiple of 6");
      return std::nullopt;
    }
    if (type == FrameType::kGoAway && length < 8) {
      fail(ErrorCode::kFrameSizeError, "GOAWAY length < 8");
      return std::nullopt;
    }
    if (type == FrameType::kPushPromise && length < 4) {
      fail(ErrorCode::kFrameSizeError, "PUSH_PROMISE length < 4");
      return std::nullopt;
    }
    Frame f;
    f.type = type;
    f.flags = flags;
    f.stream_id = stream_id;
    pending_ = std::move(f);
    pending_length_ = length;
    input_.pop_front(kFrameHeaderSize);
  }
  if (input_.size() < pending_length_) return std::nullopt;
  Frame out = std::move(*pending_);
  pending_.reset();
  out.payload = input_.split_front(pending_length_);
  return out;
}

}  // namespace hsim::h2
