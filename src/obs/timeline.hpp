// Per-connection event timelines: a fixed-capacity ring of annotated events
// (state transitions, cwnd/ssthresh changes, segments sent/received, timer
// fires) with simulated timestamps.
//
// The obs layer stays protocol-agnostic: events carry a kind tag plus three
// numeric arguments whose meaning is defined by the recorder (the encoding
// tcp::Connection uses is listed next to each kind below). Readers — the
// TCP tests — walk events() directly. Timelines exist only while a Registry
// with enable_timelines() is installed; otherwise connections hold a null
// pointer and recording is a no-op branch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace hsim::obs {

enum class TlKind : std::uint8_t {
  kStateChange,     // a = old state, b = new state
  kSegSent,         // flags = TCP flags, a = seq, b = payload bytes
  kSegRecvd,        // flags = TCP flags, a = seq, b = payload bytes
  kCwndChange,      // flags = tcp::CaState, a = cwnd bytes, b = ssthresh bytes
  kRtoFire,         // a = backed-off RTO (ns), b = consecutive fires
  kFastRetransmit,  // a = seq retransmitted
  kDelayedAck,      // delayed-ACK timer fired a pure ACK
  kNagleHold,       // a = withheld segment length
  kRstSent,         // a = seq; flags: 1 = failure-path RST (give-up)
  kRstRecvd,        // connection torn down by an incoming RST
  kNote,            // free-form marker; a/b recorder-defined
};

struct TlEvent {
  sim::Time time = 0;
  TlKind kind = TlKind::kNote;
  std::uint8_t flags = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class ConnTimeline {
 public:
  ConnTimeline(std::string label, std::size_t capacity);

  void record(sim::Time time, TlKind kind, std::uint8_t flags = 0,
              std::uint64_t a = 0, std::uint64_t b = 0);

  const std::string& label() const { return label_; }
  /// Events in chronological order (oldest retained first).
  std::vector<TlEvent> events() const;

 private:
  std::string label_;
  std::vector<TlEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // next write slot
  std::size_t size_ = 0;  // events currently retained
};

}  // namespace hsim::obs
