// HTTP/2-style binary framing layer: frame model, codec, and an incremental
// chain-cursor decoder.
//
// Frames follow the RFC 7540 shape — a 9-byte header (24-bit payload length,
// 8-bit type, 8-bit flags, 31-bit stream id) followed by the payload — but
// the header *block* coding is a simple length-prefixed name/value list with
// `:method` / `:path` / `:status` pseudo-headers instead of HPACK: the
// simulator measures transport behaviour (multiplexing, flow control, push),
// not compression ratios, and an uncompressed block keeps every byte
// attributable.
//
// Payloads ride `buf::Chain` slices end to end: encoding a DATA frame appends
// a 9-byte header copy plus shared slices of the body, and `FrameDecoder`
// walks arriving chains without flattening them, so arbitrary TCP
// segmentation (1-byte feeds included) is invisible to the frame stream.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "buf/bytes.hpp"
#include "http/message.hpp"

namespace hsim::h2 {

inline constexpr std::size_t kFrameHeaderSize = 9;

/// 24-byte client connection preface sent before the first frame. The server
/// classifies an incoming connection as h2 iff the bytes match exactly
/// ("PRI" diverges from every HTTP/1.x method at the second byte).
inline constexpr std::string_view kClientPreface =
    "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

inline constexpr std::uint32_t kDefaultMaxFrameSize = 16384;
inline constexpr std::uint32_t kDefaultInitialWindow = 65535;
inline constexpr std::uint32_t kDefaultMaxConcurrentStreams = 100;
/// Flow-control windows are 31-bit; an update pushing a window past this is
/// a connection error (kFlowControlError).
inline constexpr std::int64_t kMaxWindow = 0x7FFFFFFF;

enum class FrameType : std::uint8_t {
  kData = 0x0,
  kHeaders = 0x1,
  kRstStream = 0x3,
  kSettings = 0x4,
  kPushPromise = 0x5,
  kGoAway = 0x7,
  kWindowUpdate = 0x8,
};
std::string_view to_string(FrameType t);
bool is_known_frame_type(std::uint8_t t);

// Frame flags (per-type meaning, as in RFC 7540).
inline constexpr std::uint8_t kFlagEndStream = 0x1;   // DATA, HEADERS
inline constexpr std::uint8_t kFlagAck = 0x1;         // SETTINGS
inline constexpr std::uint8_t kFlagEndHeaders = 0x4;  // HEADERS, PUSH_PROMISE

enum class ErrorCode : std::uint32_t {
  kNoError = 0x0,
  kProtocolError = 0x1,
  kInternalError = 0x2,
  kFlowControlError = 0x3,
  kFrameSizeError = 0x6,
  kRefusedStream = 0x7,
  kCancel = 0x8,
};

// Settings identifiers carried in SETTINGS payloads (6-byte id/value pairs).
inline constexpr std::uint16_t kSettingsEnablePush = 0x2;
inline constexpr std::uint16_t kSettingsMaxConcurrentStreams = 0x3;
inline constexpr std::uint16_t kSettingsInitialWindowSize = 0x4;
inline constexpr std::uint16_t kSettingsMaxFrameSize = 0x5;

struct Frame {
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;  // 31-bit; 0 = connection scope
  buf::Chain payload;

  bool has_flag(std::uint8_t f) const { return (flags & f) != 0; }
};

/// Serializes header + payload. The payload chain is shared, not copied.
buf::Chain encode_frame(const Frame& frame);

// ---- Typed payload helpers ------------------------------------------------

struct Setting {
  std::uint16_t id = 0;
  std::uint32_t value = 0;
};

buf::Chain encode_settings_payload(const std::vector<Setting>& settings);
/// nullopt on a length not divisible by 6.
std::optional<std::vector<Setting>> parse_settings_payload(
    const buf::Chain& payload);

buf::Chain encode_window_update_payload(std::uint32_t increment);
/// nullopt on wrong length; a zero increment is returned and rejected at the
/// session layer (stream-scoped error attribution lives there).
std::optional<std::uint32_t> parse_window_update_payload(
    const buf::Chain& payload);

buf::Chain encode_rst_payload(ErrorCode code);
std::optional<std::uint32_t> parse_rst_payload(const buf::Chain& payload);

struct GoAway {
  std::uint32_t last_stream_id = 0;
  std::uint32_t error_code = 0;
};
buf::Chain encode_goaway_payload(const GoAway& g);
std::optional<GoAway> parse_goaway_payload(const buf::Chain& payload);

// ---- Header block coding --------------------------------------------------
//
// A block is a sequence of [u16 name_len][name][u16 value_len][value]
// entries. Requests lead with `:method` and `:path`, responses with
// `:status`; remaining entries are the ordinary HTTP headers in order.

buf::Chain encode_request_block(const http::Request& req);
buf::Chain encode_response_block(const http::Response& res);

/// nullopt on truncated entries or a missing pseudo-header.
std::optional<http::Request> decode_request_block(const buf::Chain& block);
/// Decoded response carries status/reason/headers; the body arrives in DATA
/// frames and is attached by the session.
std::optional<http::Response> decode_response_block(const buf::Chain& block);

/// PUSH_PROMISE payload: [u32 promised stream id][request header block].
buf::Chain encode_push_promise_payload(std::uint32_t promised_id,
                                       const http::Request& req);
struct PushPromise {
  std::uint32_t promised_id = 0;
  http::Request request;
};
std::optional<PushPromise> parse_push_promise_payload(
    const buf::Chain& payload);

// ---- Incremental decoder --------------------------------------------------

/// A connection-fatal decode failure with attribution. Everything the
/// decoder rejects maps onto an ErrorCode a session turns into GOAWAY.
struct DecodeError {
  ErrorCode code = ErrorCode::kProtocolError;
  std::string message;
};

/// Incremental frame decoder over a chain cursor. Feed arriving bytes in any
/// segmentation; `next()` yields complete frames with payloads sliced
/// zero-copy out of the input chain. After an error, `next()` returns
/// nullopt forever and `error()` describes the failure.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::uint32_t max_frame_size = kDefaultMaxFrameSize)
      : max_frame_size_(max_frame_size) {}

  void feed(buf::Chain&& data) { input_.append(std::move(data)); }
  void feed(const buf::Chain& data) { input_.append(data); }

  std::optional<Frame> next();

  bool failed() const { return error_.has_value(); }
  const std::optional<DecodeError>& error() const { return error_; }

  /// Bytes buffered but not yet consumed as frames (diagnostics).
  std::size_t buffered() const { return input_.size(); }

 private:
  void fail(ErrorCode code, std::string message);

  buf::Chain input_;
  std::uint32_t max_frame_size_;
  std::optional<DecodeError> error_;
  // Parsed header of the frame whose payload we are still waiting for.
  std::optional<Frame> pending_;
  std::size_t pending_length_ = 0;
};

}  // namespace hsim::h2
