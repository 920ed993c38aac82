#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "harness/experiment.hpp"
#include "server/server.hpp"

namespace perfbench {

namespace {

using namespace hsim;

// Sizing (README.md "Sizing"): an Apache page costs ~80 ms of simulated
// server CPU for HTTP/1.1 and h2 (43 requests x 1.8 ms + one 2.5 ms
// connection) and ~185 ms for HTTP/1.0 without keep-alive (43 x (1.8 + 2.5)
// ms), so one server completes ~5.2k (resp. ~2.3k) pages inside the 420 s
// page deadline. 1000 and 500 clients stay far below both limits.
constexpr unsigned kFleetClients = 1000;
constexpr unsigned kMobileClients = 500;
constexpr unsigned kPaperSeedsPerRep = 2;  // 60 cells per seed
constexpr sim::Time kEpoch = sim::seconds(1);

const std::vector<std::string> kNames = {
    "dumbbell-h11", "star-h2", "mobile-h10", "dumbbell-h11-t4", "paper-tables",
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Registry counts the per-layer report reads, summed over a repetition's
/// simulation calls (server.max_open is a maximum).
void add_counts(const obs::Snapshot& m, std::map<std::string, double>& out) {
  const auto c = [&m](const char* name) {
    return static_cast<double>(m.counter(name));
  };
  const auto add = [&out](const char* name, double v) { out[name] += v; };
  add("net.packets", c("net.link.packets_sent"));
  add("net.wire_bytes", c("net.link.wire_bytes"));
  add("net.drops", c("net.link.dropped_queue") + c("net.link.dropped_faults"));
  add("netem.radio_wakeups", c("netem.radio_wakeups"));
  add("topo.forwarded", c("topo.router.forwarded"));
  add("topo.queue.drops", c("topo.router.dropped_queue"));
  add("tcp.segments", c("tcp.segments_sent"));
  add("tcp.retransmits", c("tcp.retransmits"));
  add("tcp.rto_fires", c("tcp.rto_fires"));
  add("tcp.connections", c("tcp.connections_opened"));
  add("tcp.bytes_sent", c("tcp.bytes_sent"));
  add("http.requests", c("server.requests_served"));
  static const char* kFrameTypes[] = {"data",     "headers",      "rst_stream",
                                      "settings", "push_promise", "goaway",
                                      "window_update"};
  double frames = 0;
  for (const char* t : kFrameTypes) {
    const double n = c(("h2.frames_sent." + std::string(t)).c_str());
    out["h2.frames." + std::string(t)] += n;
    frames += n;
  }
  add("h2.frames", frames);
  add("h2.data_bytes", c("h2.data_bytes_sent"));
  add("h2.flow_stalls", c("h2.flow_stalls"));
  add("h2.pushes_promised", c("h2.pushes_promised"));
  add("h2.pushes_accepted", c("h2.pushes_accepted"));
  add("server.connections_queued", c("server.connections_queued"));
  add("client.requests", c("client.requests_sent"));
  add("client.retries", c("client.retries"));
  const auto peak = m.gauge_peaks.find("server.active_connections");
  if (peak != m.gauge_peaks.end()) {
    double& open = out["server.max_open"];
    open = std::max(open, static_cast<double>(peak->second));
  }
  const auto depth = m.gauge_peaks.find("topo.queue.bn.down.depth_packets");
  if (depth != m.gauge_peaks.end()) {
    double& d = out["topo.bottleneck_depth"];
    d = std::max(d, static_cast<double>(depth->second));
  }
}

/// Records the instant the harness hands over its registry (end of
/// simulation, start of teardown).
struct StampSink : obs::MetricsSink {
  Clock::time_point at{};
  void consume(const obs::Registry&) override { at = Clock::now(); }
};

Rep run_fleet(const std::string& workload, const RepOptions& o) {
  harness::WorkloadConfig cfg = fleet_config(workload, o.seed);
  StampSink sink;
  std::vector<Clock::time_point> epochs;
  if (o.traced) {
    cfg.metrics_sink = &sink;
    cfg.epoch = kEpoch;
    epochs.reserve(static_cast<std::size_t>(cfg.horizon / kEpoch) + 1);
    cfg.on_epoch = [&epochs] { epochs.push_back(Clock::now()); };
  }
  const content::MicroscapeSite& site = harness::shared_site();

  Rep rep;
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const harness::WorkloadResult r = harness::run_workload(cfg, site);
  const Clock::time_point t1 = Clock::now();
  rep.cpu_s = process_cpu_seconds() - cpu0;
  rep.wall_s = seconds_between(t0, t1);
  rep.cell_ms.push_back(rep.wall_s * 1e3);

  const unsigned n = cfg.num_clients;
  rep.pages = n;
  add_counts(r.metrics, rep.counts);
  rep.counts["sim.events"] = static_cast<double>(r.events_executed);

  sim::Time last_finish = 0;
  std::size_t leaked = 0;
  for (const harness::ClientOutcome& c : r.clients) {
    last_finish = std::max(last_finish, c.stats.finished);
    leaked += c.leaked_connections;
  }
  rep.active_sim_s = sim::to_seconds(last_finish);

  if (!r.all_resolved()) rep.errors.push_back("a client never resolved");
  if (r.completed() != n) {
    rep.errors.push_back("completed " + std::to_string(r.completed()) + " of " +
                         std::to_string(n));
  }
  if (leaked != 0) {
    rep.errors.push_back(std::to_string(leaked) +
                         " client connections open after drain");
  }
  if (r.server_open_after_drain != 0) {
    rep.errors.push_back(std::to_string(r.server_open_after_drain) +
                         " server connections open after drain");
  }

  rep.fp.events = r.events_executed;
  rep.fp.packets = static_cast<std::uint64_t>(rep.counts["net.packets"]);
  rep.fp.retransmits = r.tcp_retransmits;
  rep.fp.h2_frames = static_cast<std::uint64_t>(rep.counts["h2.frames"]);
  rep.fp.completed = r.completed();

  if (o.traced) {
    if (sink.at == Clock::time_point{}) {
      rep.errors.push_back("metrics_sink was never called");
      sink.at = t1;
    }
    rep.simulate_s = seconds_between(t0, sink.at);
    rep.teardown_s = seconds_between(sink.at, t1);
    const std::size_t run = o.spans->add("harness.run_workload", o.parent, t0, t1);
    const std::size_t sim_span =
        o.spans->add("harness.simulate", run, t0, sink.at);
    o.spans->add("harness.teardown", run, sink.at, t1);
    // Wall time per simulated second while pages are in flight; the epochs
    // after the last page only tick an idle queue.
    const auto active =
        static_cast<std::size_t>(std::ceil(rep.active_sim_s));
    Clock::time_point prev = t0;
    for (std::size_t k = 0; k < epochs.size() && k < active; ++k) {
      o.spans->add("sim.epoch", sim_span, prev, epochs[k]);
      rep.wall_ms_per_sim_s.push_back(seconds_between(prev, epochs[k]) * 1e3);
      prev = epochs[k];
    }
  }
  return rep;
}

/// One paper-tables repetition: the Tables 4-9 grid (5 protocol rows x
/// {LAN, WAN, PPP} x {Jigsaw, Apache} x {first visit, revalidation}) over
/// kPaperSeedsPerRep seeds, each cell one run_once call.
Rep run_paper_tables(const RepOptions& o) {
  static const client::ProtocolMode kModes[] = {
      client::ProtocolMode::kHttp10Parallel,
      client::ProtocolMode::kHttp11Persistent,
      client::ProtocolMode::kHttp11Pipelined,
      client::ProtocolMode::kHttp11PipelinedCompressed,
      client::ProtocolMode::kH2,
  };
  const harness::NetworkProfile nets[] = {harness::lan_profile(),
                                          harness::wan_profile(),
                                          harness::ppp_profile()};
  const server::ServerConfig servers[] = {server::jigsaw_config(),
                                          server::apache_config()};
  const harness::Scenario scenarios[] = {harness::Scenario::kFirstVisit,
                                         harness::Scenario::kRevalidation};
  const content::MicroscapeSite& site = harness::shared_site();

  Rep rep;
  const Clock::time_point t_start = Clock::now();
  const std::size_t sweep =
      o.traced ? o.spans->add("paper_tables.sweep", o.parent, t_start, t_start)
               : Spans::kNoParent;
  const double cpu0 = process_cpu_seconds();
  for (unsigned k = 0; k < kPaperSeedsPerRep; ++k) {
    for (client::ProtocolMode mode : kModes) {
      for (const harness::NetworkProfile& net : nets) {
        for (const server::ServerConfig& srv : servers) {
          for (harness::Scenario scenario : scenarios) {
            harness::ExperimentSpec spec;
            spec.network = net;
            spec.server = srv;
            spec.client = harness::robot_config(mode);
            spec.scenario = scenario;
            spec.seed = o.seed + k;
            StampSink sink;
            if (o.traced) spec.metrics_sink = &sink;

            const Clock::time_point t0 = Clock::now();
            const harness::RunResult r = harness::run_once(spec, site);
            const Clock::time_point t1 = Clock::now();
            rep.cell_ms.push_back(seconds_between(t0, t1) * 1e3);
            ++rep.pages;
            if (r.robot.complete) {
              ++rep.fp.completed;
            } else {
              rep.errors.push_back(
                  "incomplete cell: " + std::string(client::to_string(mode)) +
                  " " + net.name + " " + srv.server_name + " " +
                  std::string(harness::to_string(scenario)) + " seed " +
                  std::to_string(spec.seed));
            }
            add_counts(r.metrics, rep.counts);
            if (o.traced) {
              if (sink.at == Clock::time_point{}) sink.at = t1;  // stalled
              const std::size_t cell =
                  o.spans->add("harness.run_once", sweep, t0, t1);
              o.spans->add("harness.simulate", cell, t0, sink.at);
              o.spans->add("harness.teardown", cell, sink.at, t1);
              rep.simulate_s += seconds_between(t0, sink.at);
              rep.teardown_s += seconds_between(sink.at, t1);
            }
          }
        }
      }
    }
  }
  const Clock::time_point t_end = Clock::now();
  rep.wall_s = seconds_between(t_start, t_end);
  rep.cpu_s = process_cpu_seconds() - cpu0;
  if (o.traced) o.spans->set_end(sweep, t_end);
  rep.fp.packets = static_cast<std::uint64_t>(rep.counts["net.packets"]);
  rep.fp.retransmits = static_cast<std::uint64_t>(rep.counts["tcp.retransmits"]);
  rep.fp.h2_frames = static_cast<std::uint64_t>(rep.counts["h2.frames"]);
  return rep;
}

}  // namespace

std::string Fingerprint::text() const {
  return "sim.events=" + std::to_string(events) +
         ";net.packets=" + std::to_string(packets) +
         ";tcp.retransmits=" + std::to_string(retransmits) +
         ";h2.frames=" + std::to_string(h2_frames) +
         ";completed=" + std::to_string(completed);
}

std::string Fingerprint::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(text())));
  return buf;
}

bool is_workload(const std::string& name) {
  return std::find(kNames.begin(), kNames.end(), name) != kNames.end();
}

std::uint64_t epoch_events(const std::string& workload) {
  if (workload == "paper-tables") return 0;
  return static_cast<std::uint64_t>(fleet_config(workload, 1).horizon / kEpoch);
}

harness::WorkloadConfig fleet_config(const std::string& workload,
                                     std::uint64_t seed) {
  // perf_smoke's configs: Poisson arrivals (10 ms mean) in simulated time,
  // an Apache server admitting 256 connections with a 512-deep backlog.
  harness::WorkloadConfig cfg;
  cfg.num_clients = kFleetClients;
  cfg.topology = harness::TopologyKind::kDumbbell;
  cfg.arrivals = harness::ArrivalProcess::kPoisson;
  cfg.mean_interarrival = sim::milliseconds(10);
  cfg.access = harness::lan_profile();
  cfg.bottleneck_bandwidth_bps = 10'000'000;
  cfg.bottleneck_delay = sim::milliseconds(10);
  cfg.bottleneck_queue_packets = 256;
  cfg.master_seed = seed;
  cfg.server = server::apache_config();
  cfg.server.listen_backlog = 512;
  cfg.server.max_concurrent_connections = 256;
  cfg.server.admission_policy = server::AdmissionPolicy::kQueue;
  cfg.client = harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  cfg.client.page_deadline = sim::seconds(420);
  cfg.threads = 0;

  if (workload == "dumbbell-h11") return cfg;
  if (workload == "dumbbell-h11-t4") {
    cfg.threads = 4;  // auto shard count: 1 + min(N, 8)
    return cfg;
  }
  if (workload == "star-h2") {
    cfg.topology = harness::TopologyKind::kStar;
    cfg.client = harness::robot_config(client::ProtocolMode::kH2);
    cfg.client.page_deadline = sim::seconds(420);
    return cfg;
  }
  if (workload == "mobile-h10") {
    cfg.num_clients = kMobileClients;
    cfg.topology = harness::TopologyKind::kStar;
    cfg.access = harness::mobile_profile();
    cfg.profile = "3g-drive";
    cfg.client = harness::robot_config(client::ProtocolMode::kHttp10Parallel);
    cfg.client.page_deadline = sim::seconds(420);
    return cfg;
  }
  throw std::invalid_argument("not a fleet workload: " + workload);
}

Rep run_rep(const std::string& workload, const RepOptions& options) {
  if (workload == "paper-tables") return run_paper_tables(options);
  return run_fleet(workload, options);
}

}  // namespace perfbench
