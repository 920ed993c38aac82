// HTTP/2-style multiplexed session: streams, flow control, a deterministic
// priority scheduler, and server push over one byte-stream transport.
//
// A `Session` is transport-agnostic: it consumes arriving bytes via
// `receive()` and emits outgoing bytes through a caller-supplied `WriteFn`
// sink. The server wires the sink into its existing `out_unsent` pump (so
// fault injection — stall-after-bytes, premature close — applies to h2
// connections unchanged), the client into its lane output buffer, and the
// tests into in-memory pipes.
//
// Determinism rules (pinned by golden traces and the flow-control tests):
//   - The DATA scheduler picks, among streams with queued bytes and open
//     stream + connection windows, the highest weight first; within a weight
//     it round-robins by stream id (smallest id strictly greater than the
//     last-served id, wrapping). One frame of at most the peer's
//     MAX_FRAME_SIZE is sent per pick.
//   - Streams live in an id-ordered map; every callback fires in frame
//     arrival order. No hashing, no pointer-order iteration anywhere.
//   - A stream closed in both directions (not reset, nothing queued) is
//     erased from the map when the outermost receive() or a submit_response()
//     outside receive() returns (RFC 7540 §5.1). An id this session opened
//     or accepted that is no longer in the map counts as closed: a late
//     WINDOW_UPDATE on it is ignored, DATA or HEADERS on it is a connection
//     error, as for a closed stream still in the map. Reset streams stay, so
//     DATA in flight after our RST still returns connection window.
//   - Window replenishment (WINDOW_UPDATE) triggers at exactly half the
//     initial window, per stream and per connection.
//   - Every session advertises the RFC 7540 defaults — MAX_CONCURRENT_STREAMS
//     100, INITIAL_WINDOW_SIZE 65535, MAX_FRAME_SIZE 16384 — plus its
//     ENABLE_PUSH choice.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "buf/bytes.hpp"
#include "h2/frame.hpp"
#include "http/message.hpp"
#include "obs/metrics.hpp"

namespace hsim::h2 {

struct SessionConfig {
  bool is_server = false;
  /// Whether we accept PUSH_PROMISE (clients) / intend to push (servers).
  /// Advertised to the peer in SETTINGS ENABLE_PUSH.
  bool enable_push = true;
};

/// Plain-value counters mirrored into `h2.*` registry metrics when a
/// registry is installed (binding happens in the Session constructor, so
/// registry dumps of non-h2 runs carry no h2 names).
struct SessionStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t data_bytes_sent = 0;
  std::uint64_t data_bytes_received = 0;
  std::uint64_t flow_stalls = 0;
  std::uint64_t streams_opened = 0;
  std::uint64_t pushes_promised = 0;
  std::uint64_t pushes_accepted = 0;
  std::uint64_t pushes_reset = 0;
  std::uint64_t goaways_sent = 0;
  std::uint64_t goaways_received = 0;
  std::uint64_t conn_errors = 0;
};

class Session {
 public:
  using WriteFn = std::function<void(buf::Chain&&)>;

  /// A client session emits the connection preface + SETTINGS immediately;
  /// a server session emits its SETTINGS (the owner consumes the preface
  /// before constructing the session).
  Session(SessionConfig config, WriteFn write);

  // ---- Input ----------------------------------------------------------

  /// Feeds arriving transport bytes (any segmentation). Dispatches
  /// callbacks synchronously in frame order.
  void receive(buf::Chain data);

  // ---- Client API -----------------------------------------------------

  /// Opens an odd-id stream carrying `req` (HEADERS + END_STREAM; the
  /// simulated workloads carry no request bodies). Returns the stream id.
  std::uint32_t submit_request(const http::Request& req,
                               std::uint8_t weight = 16);

  // ---- Server API -----------------------------------------------------

  /// Sends response HEADERS on `stream_id` and queues the body for the
  /// scheduler. END_STREAM rides the HEADERS frame when there is no body.
  void submit_response(std::uint32_t stream_id, const http::Response& res);

  /// Reserves an even push stream announced on `parent_stream`. Returns the
  /// promised id, or nullopt when the peer disabled push or a GOAWAY is in
  /// flight (callers fall back to letting the client request normally).
  std::optional<std::uint32_t> promise_push(std::uint32_t parent_stream,
                                            const http::Request& req,
                                            std::uint8_t weight = 8);
  void push_response(std::uint32_t promised_id, const http::Response& res);

  // ---- Both sides -----------------------------------------------------

  void reset_stream(std::uint32_t id, ErrorCode code);
  /// Sends GOAWAY carrying the highest peer stream id processed. Idempotent.
  void send_goaway(ErrorCode code);

  bool goaway_sent() const { return goaway_sent_; }
  bool goaway_received() const { return goaway_received_; }
  /// last_stream_id from the peer's GOAWAY (only meaningful after
  /// goaway_received()): streams above it were never processed and are safe
  /// to retry elsewhere.
  std::uint32_t peer_last_stream_id() const { return peer_goaway_.last_stream_id; }

  bool failed() const { return error_.has_value(); }
  const std::optional<DecodeError>& error() const { return error_; }
  bool peer_push_enabled() const { return peer_enable_push_; }

  // ---- Callbacks ------------------------------------------------------

  /// Server: complete request arrived on a stream.
  std::function<void(std::uint32_t, http::Request)> on_request;
  /// Client: complete response (headers + full body) on a stream we opened.
  std::function<void(std::uint32_t, http::Response)> on_response;
  /// Client: body bytes arrived on a stream (incremental; response so far
  /// is visible through stream_partial()).
  std::function<void(std::uint32_t, std::size_t)> on_stream_data;
  /// Client: peer promised a push. Return true to accept; false sends
  /// RST_STREAM(CANCEL) on the promised stream.
  std::function<bool(std::uint32_t, const http::Request&)> on_push_promise;
  /// Client: complete response on an accepted push stream.
  std::function<void(std::uint32_t, http::Response)> on_push_response;
  /// Peer reset one of our streams.
  std::function<void(std::uint32_t, ErrorCode)> on_stream_reset;
  std::function<void(const GoAway&)> on_goaway;
  /// Connection-fatal error (decode failure or flow-control violation). A
  /// GOAWAY with the matching code has already been emitted.
  std::function<void(const DecodeError&)> on_connection_error;

  // ---- Introspection --------------------------------------------------

  /// Response accumulated so far on a client-side stream (headers must have
  /// arrived); nullptr otherwise. Valid until the current receive() returns
  /// (a completed stream is forgotten then).
  const http::Response* stream_partial(std::uint32_t id) const;
  /// True once `id` is fully closed (both directions or reset), including
  /// a closed stream the session has already forgotten.
  bool stream_closed(std::uint32_t id) const;
  bool stream_was_reset(std::uint32_t id) const;

  const SessionStats& stats() const { return stats_; }

  std::int64_t conn_send_window() const { return conn_send_window_; }
  /// nullopt for an id not in the stream map (never opened, or forgotten).
  std::optional<std::int64_t> stream_send_window(std::uint32_t id) const;
  std::size_t open_stream_count() const;
  /// Bytes queued behind flow control across all streams.
  std::size_t queued_send_bytes() const;

 private:
  struct Stream {
    std::uint32_t id = 0;
    std::uint8_t weight = 16;
    bool is_push = false;
    bool local_closed = false;
    bool remote_closed = false;
    bool reset = false;
    std::int64_t send_window = 0;
    std::int64_t recv_window = 0;
    std::uint32_t recv_consumed = 0;
    bool headers_received = false;
    http::Request request;    // server side accumulation
    http::Response response;  // client side accumulation
    buf::Chain send_queue;
    bool end_after_send = false;
    bool stalled = false;
  };

  struct Metrics {
    obs::CounterHandle frames_sent[16];
    obs::CounterHandle frames_received[16];
    obs::CounterHandle data_bytes_sent;
    obs::CounterHandle data_bytes_received;
    obs::CounterHandle flow_stalls;
    obs::CounterHandle streams_opened;
    obs::CounterHandle pushes_promised;
    obs::CounterHandle pushes_accepted;
    obs::CounterHandle pushes_reset;
    obs::CounterHandle goaways_sent;
    obs::CounterHandle goaways_received;
    obs::CounterHandle conn_errors;
    static Metrics bind();
  };

  Stream& open_stream(std::uint32_t id, bool is_push, std::uint8_t weight);
  Stream* find(std::uint32_t id);
  const Stream* find(std::uint32_t id) const;
  /// True when `id` was opened (by us or by the peer) at some point: a
  /// local-parity id below next_local_id_, or a peer-parity id at or below
  /// highest_peer_id_. Such an id missing from streams_ is a closed stream.
  bool was_opened(std::uint32_t id) const;
  /// Closes one direction of `s`; a stream now closed both ways joins
  /// closed_ids_.
  void half_close(Stream& s, bool local);
  /// Erases the streams in closed_ids_ that were not reset. No Stream& may
  /// be held across the call.
  void forget_closed_streams();
  void emit(Frame frame);
  void pump_streams();
  Stream* pick_next_stream();
  void note_stalls();
  void connection_error(ErrorCode code, std::string message);
  void account_receive(Stream* s, std::size_t n);

  void handle_settings(const Frame& f);
  void handle_window_update(const Frame& f);
  void handle_data(Frame& f);
  void handle_headers(const Frame& f);
  void handle_push_promise(const Frame& f);
  void handle_rst(const Frame& f);
  void handle_goaway(const Frame& f);

  SessionConfig config_;
  WriteFn write_;
  FrameDecoder decoder_;
  Metrics metrics_;
  SessionStats stats_;

  std::map<std::uint32_t, Stream> streams_;
  /// Streams closed in both directions since the last forget_closed_streams.
  std::vector<std::uint32_t> closed_ids_;
  // Round-robin cursor per weight: the id served last at that weight.
  std::map<std::uint8_t, std::uint32_t> rr_last_;

  std::uint32_t next_local_id_;       // odd for clients, even for push
  std::uint32_t highest_peer_id_ = 0;
  std::uint32_t last_processed_peer_id_ = 0;

  std::int64_t conn_send_window_ = kDefaultInitialWindow;
  std::int64_t conn_recv_window_ = kDefaultInitialWindow;
  std::uint32_t conn_recv_consumed_ = 0;

  // Peer settings (defaults until their SETTINGS arrives).
  std::int64_t peer_initial_window_ = kDefaultInitialWindow;
  std::uint32_t peer_max_frame_size_ = kDefaultMaxFrameSize;
  std::uint32_t peer_max_concurrent_ = kDefaultMaxConcurrentStreams;
  bool peer_enable_push_ = true;

  bool goaway_sent_ = false;
  bool goaway_received_ = false;
  GoAway peer_goaway_;
  std::optional<DecodeError> error_;
  /// Set while receive() runs: handlers hold Stream& across callbacks, so
  /// closed streams are forgotten only when the outermost receive() returns.
  bool in_receive_ = false;
};

}  // namespace hsim::h2
