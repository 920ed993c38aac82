// The paper's three network environments (Table 1).
#pragma once

#include <optional>
#include <string>

#include "net/channel.hpp"
#include "netem/profile.hpp"
#include "sim/time.hpp"

namespace hsim::harness {

struct NetworkProfile {
  std::string name;
  std::int64_t bandwidth_bps = 0;
  sim::Time rtt = 0;
  std::size_t queue_limit = 64;
  double delay_jitter = 0.02;
  /// Receive window the client host uses on this network (the paper's PPP
  /// client was Windows NT 4.0, whose default window of 8760 bytes keeps the
  /// modem queue from overflowing; the UNIX workstations used ~16 KB).
  std::uint32_t client_recv_buffer = 16384;

  net::ChannelConfig channel_config() const {
    return net::ChannelConfig::symmetric(bandwidth_bps, rtt, queue_limit,
                                         delay_jitter);
  }
};

/// High bandwidth, low latency: 10 Mbit Ethernet, sub-millisecond RTT.
inline NetworkProfile lan_profile() {
  return {"LAN (10Mbit Ethernet)", 10'000'000, sim::microseconds(500), 64,
          0.02};
}

/// High bandwidth, high latency: transcontinental Internet, ~90 ms RTT.
/// The nominal path was T1-class but shared; the paper's transfer rates
/// imply ~1 Mbit/s effective, which is what the profile models.
inline NetworkProfile wan_profile() {
  return {"WAN (MIT/LCS - LBL, ~90ms)", 1'000'000, sim::milliseconds(90), 64,
          0.03};
}

/// Low bandwidth, high latency: 28.8 kbit/s dialup PPP, ~150 ms RTT.
inline NetworkProfile ppp_profile() {
  return {"PPP (28.8k modem)", 28'800, sim::milliseconds(150), 24, 0.02,
          /*client_recv_buffer=*/8760};
}

/// Base access network for the netem mobile profiles: the propagation RTT of
/// a wired backhaul; the radio path's bandwidth timeline and scheduling
/// latency come from the overlaid profile, which also deepens the queue.
inline NetworkProfile mobile_profile() {
  return {"Mobile (netem profile)", 10'000'000, sim::milliseconds(40), 128,
          0.02};
}

// ---- Time-varying profile overlay (netem subsystem) -----------------------

/// Resolves a profile setting (ExperimentSpec::profile, --profile) to a path
/// profile:
///   ""      -> nullopt (no overlay);
///   "flat"  -> nullopt, with *flat set: the caller overlays the identity
///              profile (each link's own static bandwidth as a single
///              constant segment — byte-exact with no overlay at all);
///   a name  -> netem::named_profile ("3g-drive", "4g-walk", ...);
///   a path  -> netem::load_profile_file (profiles/*.netem format).
/// Throws std::invalid_argument on an unknown name / unparsable file.
std::optional<netem::PathProfile> resolve_profile(const std::string& value,
                                                  bool* flat);

/// Applies the resolved overlay onto a duplex channel config; an empty
/// `value` leaves it static. This is called by every driver path (run_once,
/// run_workload and the engine-lookahead calculators) AFTER the
/// mutate_channel/mutate_access fault hooks, so chaos regimes compose with
/// any profile. See net::apply_path_profile for `label_prefix`.
void apply_profile_overlay(const std::string& value, net::ChannelConfig& cfg,
                           const char* label_prefix = nullptr);

}  // namespace hsim::harness
