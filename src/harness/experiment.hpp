// Experiment runner: wires a Robot and an HttpServer across a simulated
// channel, runs the paper's two scenarios, and reports the four quantities
// of the paper's tables (Pa, Bytes, Sec, %ov) plus richer diagnostics.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "client/robot.hpp"
#include "content/microscape.hpp"
#include "harness/network.hpp"
#include "net/trace.hpp"
#include "obs/metrics.hpp"
#include "server/config.hpp"
#include "server/server.hpp"

namespace hsim::harness {

enum class Scenario { kFirstVisit, kRevalidation };
std::string_view to_string(Scenario s);

struct ExperimentSpec {
  NetworkProfile network = lan_profile();
  server::ServerConfig server = server::jigsaw_config();
  client::ClientConfig client;
  Scenario scenario = Scenario::kFirstVisit;
  std::uint64_t seed = 1;
  /// Time-varying link profile overlaid on the channel (netem subsystem):
  /// "flat", a built-in name ("3g-drive", "4g-walk", "lte-stationary",
  /// "wifi-congested") or a profiles/*.netem file path. Empty consults the
  /// HSIM_PROFILE environment variable; still empty = the legacy static
  /// channel. Applied after mutate_channel, so chaos regimes compose.
  std::string profile;
  /// Optional: factory producing a payload sizer per link direction (the
  /// modem-compression model; each direction gets its own dictionary, as
  /// the two modems of a dialup pair do).
  std::function<net::Link::PayloadSizer()> make_link_sizer;
  /// Optional: edit the channel configuration after the network profile has
  /// produced it but before the links are built. This is how fault
  /// injection (bursty loss, outages, duplication, corruption, reordering)
  /// is layered onto any experiment; see harness/chaos.hpp.
  std::function<void(net::ChannelConfig&)> mutate_channel;
  /// Optional: called with the robot after the measured run drains, before
  /// teardown. Lets callers inspect state RunResult does not carry — e.g.
  /// comparing the populated cache byte-for-byte against the source site.
  std::function<void(client::Robot&)> inspect_robot;
  /// Optional: called with the packet trace after the measured run drains.
  /// This is how golden-trace capture and the hsim-trace CLI get at the raw
  /// per-packet records rather than the summary.
  std::function<void(const net::PacketTrace&)> inspect_trace;
  /// Optional: handed the run's metrics registry before teardown, so callers
  /// can aggregate counters/histograms across runs.
  obs::MetricsSink* metrics_sink = nullptr;
  /// Worker threads, mirroring WorkloadConfig::threads. There is one engine
  /// (harness/parallel.hpp): 0 runs it as one shard with no crossings
  /// (HSIM_THREADS may promote it); >= 1 splits it into a client shard and a
  /// server shard, unless the channel has less than 1 ns of lookahead, which
  /// keeps one shard. The shard count is fixed at 2, so every threads >= 1
  /// value is byte-identical.
  unsigned threads = 0;
};

struct RunResult {
  net::TraceSummary trace;  // rebuilt from the run's metrics registry
  client::RobotStats robot;
  server::ServerStats server;
  /// Full plain-value copy of every metric the run registered; outlives the
  /// registry (which dies with run_once's stack frame).
  obs::Snapshot metrics;
  std::uint64_t connections_used = 0;       // client sockets opened
  std::size_t max_parallel_connections = 0;
  double mean_packet_train = 0.0;
  std::vector<std::size_t> packet_trains;

  /// The paper's Pa and Bytes come from the trace.* counters, Sec from the
  /// robot's own page stamps (RobotStats::started / finished).
  double packets() const { return static_cast<double>(trace.packets); }
  double bytes() const { return static_cast<double>(trace.wire_bytes); }
  double seconds() const { return robot.elapsed_seconds(); }
  double overhead_percent() const { return trace.overhead_percent; }
};

/// Runs one measured scenario. For kRevalidation an unmeasured first visit
/// warms the cache before counters are reset — exactly the paper's protocol.
RunResult run_once(const ExperimentSpec& spec,
                   const content::MicroscapeSite& site);

/// Mean over `runs` seeded repetitions (the paper used 5).
struct AveragedResult {
  double packets = 0;
  double bytes = 0;
  double seconds = 0;
  double overhead_percent = 0;
  double packets_c2s = 0;
  double packets_s2c = 0;
  double connections = 0;
  double mean_packet_train = 0;
  bool all_complete = true;
};

AveragedResult run_averaged(const ExperimentSpec& spec,
                            const content::MicroscapeSite& site,
                            unsigned runs = 5);

/// The Microscape site is expensive to synthesize; benches and tests share
/// one instance.
const content::MicroscapeSite& shared_site();

/// The same page under the modern content axis (WebP/AVIF-class image
/// payloads, see content::modernize_site); cached per codec.
const content::MicroscapeSite& shared_modern_site(
    content::ModernCodec codec = content::ModernCodec::kWebP);

/// Client configuration presets matching the paper's four protocol rows.
client::ClientConfig robot_config(client::ProtocolMode mode);

/// Browser emulations for Tables 10/11.
/// Navigator 4.0b5: HTTP/1.0 + Keep-Alive over 4 connections, date-based
/// revalidation.
client::ClientConfig netscape_client_config();
/// MSIE 4.0b1: HTTP/1.1 persistent (no pipelining) over 4 connections,
/// verbose headers. `broken_revalidation` reproduces the Table 10 behaviour
/// against Jigsaw, where the beta refetched the page and HEAD-validated
/// images instead of sending conditional GETs.
client::ClientConfig msie_client_config(bool broken_revalidation);

}  // namespace hsim::harness
