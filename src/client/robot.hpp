// The measurement client ("robot").
//
// Reproduces the libwww robot's four modes from the paper:
//   - HTTP/1.0 with up to 4 parallel short connections (one per request);
//   - HTTP/1.1 persistent, requests serialized on one connection;
//   - HTTP/1.1 pipelined: requests buffered (1024 B) with a flush timer and
//     an explicit application-level flush after the HTML request;
//   - HTTP/1.1 pipelined + "Accept-Encoding: deflate" with streaming
//     decompression.
// In every mode the client scans arriving HTML incrementally and issues
// image requests as soon as references are discovered.
//
// Browser emulation (Tables 10/11) reuses the same machinery with different
// header profiles, connection strategies and revalidation styles.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "client/cache.hpp"
#include "client/profile.hpp"
#include "deflate/inflate.hpp"
#include "h2/session.hpp"
#include "http/parser.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "tcp/host.hpp"

namespace hsim::client {

enum class ProtocolMode {
  kHttp10Parallel,
  kHttp11Persistent,
  kHttp11Pipelined,
  kHttp11PipelinedCompressed,
  /// HTTP/2-style multiplexed framing: every request is a concurrent stream
  /// on one connection, with server push replacing reference discovery.
  kH2,
};
std::string_view to_string(ProtocolMode mode);

/// Why a request (or the whole page retrieval) permanently failed. Structured
/// failure attribution: chaos tests assert the *responsible* fault surfaced,
/// rather than a generic error or — worse — a hang.
enum class FailureKind {
  kConnectFailure,    // TCP connect timed out (SYN retries exhausted)
  kTransportFailure,  // established connection gave up retransmitting
  kRequestDeadline,   // per-request deadline expired (e.g. stalled server)
  kPageDeadline,      // whole-page deadline expired
  kServerError,       // 5xx responses persisted through every retry
  kConnectionLost,    // connection kept closing/resetting under us
  kRetryBudgetExhausted,  // retry token bucket ran dry (anti-storm hard stop)
};
std::string_view to_string(FailureKind kind);

/// One permanently-failed request, with its retry count.
struct RequestFailure {
  std::string target;
  FailureKind kind = FailureKind::kConnectionLost;
  unsigned attempts = 0;
};

/// How a cache-validation visit expresses its requests.
enum class RevalidationStyle {
  /// Full HTTP/1.1 style: conditional GET with If-None-Match on everything.
  kConditionalGet,
  /// The old HTTP/1.0 robot: unconditional GET for the HTML plus HEAD for
  /// every image (transfers the whole HTML body again).
  kGetPlusHead,
  /// MSIE 4.0b1's beta behaviour: unconditional GETs (refetches bodies).
  kUnconditionalGet,
};

struct ClientConfig {
  ProtocolMode mode = ProtocolMode::kHttp11Pipelined;
  unsigned max_connections = 1;  // 4 in HTTP/1.0 mode (Navigator default)
  std::size_t pipeline_buffer = 1024;
  sim::Time flush_timeout = sim::milliseconds(50);
  /// Application-level explicit flush after issuing the first (HTML)
  /// request — the "Buffer Tuning" optimisation.
  bool explicit_first_flush = true;
  bool nodelay = true;
  RevalidationStyle revalidation = RevalidationStyle::kConditionalGet;
  HeaderProfile profile = robot_profile();
  tcp::TcpOptions tcp;

  /// Prefer If-None-Match entity tags for conditional requests; false falls
  /// back to If-Modified-Since dates (Navigator's HTTP/1.0 behaviour).
  bool use_etags = true;

  /// Fetch embedded images discovered in the HTML. Disabled for experiments
  /// that retrieve the document alone (the paper's §8.2.1 modem test).
  bool follow_embedded = true;

  /// "Poor man's multiplexing" (paper §"Range Requests and Validation"):
  /// revalidation requests combine the cache validator with
  /// `Range: bytes=0-1359`, so an object that *changed* returns only its
  /// first 1360 bytes (enough for image metadata) instead of monopolizing
  /// the connection with a full transfer.
  bool validate_with_ranges = false;

  /// Client CPU consumed per response (parsing plus cache bookkeeping).
  /// The paper notes libwww 5.1's two-files-per-object persistent cache
  /// "became a performance bottleneck in our HTTP/1.1 tests"; the old
  /// HTTP/1.0 robot had no persistent cache and only pays parse cost.
  sim::Time per_response_cpu = sim::milliseconds(5);

  // ---- Failure recovery --------------------------------------------------
  /// A request is abandoned (structured failure) after this many attempts.
  unsigned max_attempts = 5;

  /// Abort a connection whose next response has not completed within this
  /// time (0 = no deadline). This is what rescues the client from a server
  /// that wedges mid-response without closing.
  sim::Time request_deadline = 0;

  /// Give up on the whole retrieval after this long (0 = no deadline).
  /// Expiry reports a structured kPageDeadline failure; it never hangs.
  sim::Time page_deadline = 0;

  /// Exponential backoff between re-issues of a failed request: attempt k
  /// waits retry_backoff * 2^(k-1), capped at 10 s. 0 = retry immediately
  /// (the pre-fault-injection behaviour).
  sim::Time retry_backoff = 0;

  /// Re-issue requests answered with 5xx (bounded by max_attempts). Off by
  /// default: the paper's robot treated errors as terminal.
  bool retry_server_errors = false;

  // ---- Anti-storm recovery -----------------------------------------------
  /// Per-visit retry token bucket: every charged retry (head-of-lane
  /// recovery or 5xx re-issue) consumes one token; each successful response
  /// refunds one (never past the budget). A retry attempted with an empty
  /// bucket hard-stops the request with kRetryBudgetExhausted instead of
  /// joining a synchronized retry storm. 0 = unlimited (budget disabled).
  unsigned retry_budget = 0;

  /// Multiplicative jitter on backoff_delay(): each wait is scaled by
  /// U[1-j, 1+j] drawn from this client's own seeded stream, de-phasing
  /// clients whose connections were killed by the same shared fault.
  /// 0 = deterministic exponential backoff (the legacy behaviour).
  double retry_jitter = 0.0;
  /// Seed for the jitter stream; give each client a distinct value (the
  /// harness derives one per client from the master seed).
  std::uint64_t retry_jitter_seed = 0;

  // ---- HTTP/2-style framing ----------------------------------------------
  /// Accept server pushes on first visits (advertised via SETTINGS
  /// ENABLE_PUSH; only meaningful in kH2 mode).
  bool h2_enable_push = true;

  bool wants_deflate() const {
    return mode == ProtocolMode::kHttp11PipelinedCompressed;
  }
  bool pipelined() const {
    return mode == ProtocolMode::kHttp11Pipelined ||
           mode == ProtocolMode::kHttp11PipelinedCompressed;
  }
  bool h2() const { return mode == ProtocolMode::kH2; }
  bool http11() const { return mode != ProtocolMode::kHttp10Parallel; }
};

struct RobotStats {
  std::size_t requests_sent = 0;
  std::size_t responses_ok = 0;        // 200
  std::size_t responses_partial = 0;   // 206 (range validation)
  std::size_t responses_not_modified = 0;
  std::size_t responses_error = 0;     // 4xx/5xx
  std::size_t retries = 0;             // re-issued after connection loss
  /// Partition of recovery re-issues by what killed the connection — the
  /// paper's pipelining-close pitfall shows up as retries_after_reset.
  std::size_t retries_after_reset = 0;   // lane died by RST
  std::size_t retries_after_close = 0;   // lane closed gracefully (FIN)
  std::size_t resets_seen = 0;
  std::size_t explicit_flushes = 0;
  std::size_t timer_flushes = 0;
  std::size_t size_flushes = 0;
  // ---- HTTP/2-style framing (kH2 mode only) ------------------------------
  std::size_t pushes_promised = 0;  // PUSH_PROMISE frames seen
  std::size_t pushes_accepted = 0;  // promises admitted to the push cache
  std::size_t pushes_rejected = 0;  // promises answered with RST(CANCEL)
  std::size_t h2_goaways_seen = 0;
  std::uint64_t body_bytes = 0;
  sim::Time started = 0;
  sim::Time finished = 0;
  /// True iff every request resolved successfully (no permanent failures,
  /// no page-deadline expiry).
  bool complete = false;

  // ---- Failure accounting ------------------------------------------------
  std::size_t requests_failed = 0;        // permanently abandoned
  std::size_t connect_failures = 0;       // TCP connect give-ups observed
  std::size_t transport_failures = 0;     // established-connection give-ups
  std::size_t request_deadlines_fired = 0;
  bool page_deadline_hit = false;
  // Retry-budget bookkeeping (all zero when ClientConfig::retry_budget == 0).
  std::size_t retry_tokens_consumed = 0;
  std::size_t retry_tokens_refunded = 0;
  std::size_t retry_budget_exhausted = 0;  // retries refused on empty bucket
  /// 503 responses whose Retry-After delayed the re-issue beyond the
  /// client's own backoff.
  std::size_t retry_after_honored = 0;
  /// One entry per permanently-failed request, with the responsible fault.
  std::vector<RequestFailure> failures;

  // Perceived-performance timestamps (0 = never happened). The paper leaves
  // time-to-render as future work; these are the raw ingredients.
  sim::Time first_html_byte_at = 0;   // first decoded document byte
  sim::Time html_complete_at = 0;     // whole document decoded
  sim::Time first_image_done_at = 0;  // first embedded object fetched

  double elapsed_seconds() const { return sim::to_seconds(finished - started); }
  double seconds_to_first_html() const {
    return sim::to_seconds(first_html_byte_at - started);
  }
  double seconds_to_html_complete() const {
    return sim::to_seconds(html_complete_at - started);
  }
};

class Robot {
 public:
  using DoneCallback = std::function<void()>;

  Robot(tcp::Host& host, net::IpAddr server_addr, net::Port server_port,
        ClientConfig config);
  ~Robot();

  /// First-time visit: fetch `root`, discover embedded images incrementally,
  /// fetch them all, populate the cache.
  void start_first_visit(const std::string& root, DoneCallback done);

  /// Cache-validation visit: revalidate the root and every cached entry
  /// (requires a populated cache, e.g. from a prior first visit).
  void start_revalidation(const std::string& root, DoneCallback done);

  Cache& cache() { return cache_; }
  const RobotStats& stats() const { return stats_; }

 private:
  struct PendingRequest {
    std::string target;
    http::Method method = http::Method::kGet;
    bool conditional = false;
    bool is_root = false;
    unsigned attempts = 0;
    /// True for a request the robot never issued itself: it tracks an
    /// accepted h2 server push. Never charged an attempt on lane loss.
    bool from_push = false;
    /// Earliest time this request may be (re)issued — retry backoff.
    sim::Time not_before = 0;
    /// When the (latest attempt of the) request hit the wire; feeds the
    /// client.request_latency_us histogram.
    sim::Time issued_at = 0;
  };

  /// Why a lane went away; drives retry accounting and failure attribution.
  enum class LaneClose {
    kGraceful,          // FIN / orderly close
    kReset,             // RST
    kConnectFailure,    // tcp on_failed before the handshake completed
    kTransportFailure,  // tcp on_failed after establishment
    kDeadline,          // our own request deadline aborted it
  };

  /// One TCP connection and its in-flight request queue.
  struct Lane {
    tcp::ConnectionPtr conn;
    http::ResponseParser parser;
    std::deque<PendingRequest> outstanding;
    buf::Chain out_buffer;
    buf::Chain out_unsent;
    bool connected = false;
    bool closed = false;
    std::unique_ptr<sim::Timer> flush_timer;
    /// Per-request deadline for the response at the head of `outstanding`.
    std::unique_ptr<sim::Timer> deadline_timer;
    // ---- HTTP/2-style framing ---------------------------------------------
    /// Non-null in kH2 mode: the multiplexed session replacing the pipeline
    /// queue. Requests live in `h2_outstanding` keyed by stream id instead
    /// of `outstanding`.
    std::unique_ptr<h2::Session> h2;
    std::map<std::uint32_t, PendingRequest> h2_outstanding;
  };
  using LanePtr = std::shared_ptr<Lane>;

  void begin(DoneCallback done);
  void pump();                        // assign queued requests to lanes
  LanePtr open_lane();
  void issue_on_lane(const LanePtr& lane, PendingRequest request);
  http::Request build_request(const PendingRequest& pending) const;
  void flush_lane(const LanePtr& lane);
  void pump_lane_output(const LanePtr& lane);

  void on_lane_data(const LanePtr& lane);
  void on_lane_closed(const LanePtr& lane, LaneClose cause);
  /// Routes a complete response through the serialized client CPU before
  /// handle_response (shared by the HTTP/1.x parser loop and h2 streams).
  void deliver_response(const LanePtr& lane, PendingRequest pending,
                        http::Response response);
  void handle_response(const LanePtr& lane, const PendingRequest& pending,
                       http::Response response);
  void attach_h2_session(const LanePtr& lane);
  bool lane_has_outstanding(const Lane& lane) const;
  /// True when `target` is queued or riding any lane (push dedup).
  bool target_in_flight(const std::string& target) const;
  sim::Time backoff_delay(unsigned attempts);
  /// Takes one retry token (true = retry may proceed). With the budget
  /// disabled always true; on an empty bucket counts the exhaustion and
  /// returns false.
  bool consume_retry_token();
  /// Returns one token on success, never exceeding the configured budget.
  void refund_retry_token();
  void arm_request_deadline(const LanePtr& lane);
  void fail_request(const PendingRequest& request, FailureKind kind);
  void on_page_deadline();
  void scan_html_progress(const LanePtr& lane);
  void scan_partial_body(const http::Response& partial);
  void ingest_html_bytes(std::span<const std::uint8_t> raw, bool deflated);
  void discover_references();
  void maybe_finish();

  tcp::Host& host_;
  net::IpAddr server_addr_;
  net::Port server_port_;
  ClientConfig config_;
  Cache cache_;
  RobotStats stats_;
  DoneCallback done_;
  /// Wakes pump() once the head-of-queue retry backoff elapses.
  sim::Timer retry_timer_;
  sim::Timer page_timer_;
  /// Retry tokens remaining this visit (see ClientConfig::retry_budget).
  unsigned retry_tokens_ = 0;
  /// Per-client backoff jitter stream (see ClientConfig::retry_jitter).
  sim::Rng retry_rng_;

  std::deque<PendingRequest> queue_;  // not yet assigned to a lane
  std::vector<LanePtr> lanes_;
  std::size_t expected_responses_ = 0;
  std::size_t completed_responses_ = 0;
  bool first_request_issued_ = false;
  bool finished_ = false;

  // Incremental HTML handling (first visit).
  std::string root_target_;
  bool first_visit_ = false;
  std::string html_text_;            // decoded document prefix
  std::size_t html_raw_consumed_ = 0;  // raw body bytes already ingested
  std::size_t refs_discovered_ = 0;
  /// Targets covered by accepted h2 pushes: reference discovery skips these
  /// (the push IS the fetch), and duplicate promises are rejected.
  std::set<std::string> pushed_targets_;
  std::optional<deflate::Inflater> inflater_;
  std::string html_content_type_;

  /// Single client CPU: response processing serializes (models the libwww
  /// cache overhead the paper describes).
  sim::Time client_cpu_free_ = 0;

  /// client.* registry metrics. Page times and body bytes live only in
  /// stats_: a per-visit value has no meaning summed across shards.
  struct Metrics {
    obs::CounterHandle requests_sent, retries;
    obs::HistogramHandle request_latency_us;
    static Metrics bind();
  };
  Metrics metrics_ = Metrics::bind();
};

}  // namespace hsim::client
