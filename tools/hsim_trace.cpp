// hsim-trace: capture, inspect and compare packet traces.
//
//   hsim-trace run <table4|table6|table4h2|table6h2> [--seed N] [--cc CC]
//                  [--profile P] [--binary] -o FILE
//       Run a golden scenario and write the client-side trace to FILE
//       (canonical text by default, stable binary with --binary). --cc
//       selects the congestion-control module on both endpoints
//       (reno|newreno|cubic|bbr; default reno, the golden behaviour);
//       --profile overlays a netem profile ("flat", a built-in name or a
//       profiles/*.netem file) on the access path.
//   hsim-trace run dumbbell [--seed N] [--clients N] [--cc CC] [--profile P]
//                  [--binary] -o FILE
//       Run a small shared-bottleneck dumbbell workload with a multi-hop
//       trace attached to every router; the resulting file uses the v2
//       format with a per-hop column (router id + queue depth at enqueue).
//   hsim-trace text FILE
//       Print a trace file (either format) as canonical text; multi-hop
//       traces gain a trailing hop=<router>:<depth> column.
//   hsim-trace summarize FILE [--client ADDR] [--metrics MFILE]
//       Print the paper's aggregate numbers (Pa, Bytes, %ov, ...) for a
//       trace file. ADDR defaults to 1, the harness's client address.
//       Multi-hop traces additionally get a per-hop table (one row per
//       recording router, with mean/max egress queue depth). --metrics
//       reads a registry dump (obs::Snapshot::dump_text format) captured
//       alongside the trace and adds the per-link netem profile table
//       (radio wakeups, time under 1 Mbit, last bandwidth, standing queue),
//       so a failing mobile-profile trace is diagnosable.
//   hsim-trace profiles [NAME]
//       List the built-in netem profiles, or print NAME's canonical trace
//       file text (how profiles/<name>.netem is (re)generated:
//       hsim-trace profiles 3g-drive > profiles/3g-drive.netem).
//   hsim-trace diff A B
//       Structural record-by-record comparison. Exit 0 when identical,
//       1 when the traces differ, 2 on usage/I-O errors.
//
// Two runs of the same scenario with the same seed produce byte-identical
// traces; `hsim-trace diff` of such a pair reports zero differences.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "harness/scenarios.hpp"
#include "harness/workload.hpp"
#include "net/trace_io.hpp"
#include "netem/profile.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace hsim;

/// The golden scenario names joined by `sep`, for usage and error text.
std::string scenario_list(const char* sep) {
  std::string out;
  for (const std::string& name : harness::golden_scenario_names()) {
    out += (out.empty() ? "" : sep) + name;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: hsim-trace run <%s> [--seed N] [--cc CC] [--profile P] [--binary] -o FILE\n"
               "       hsim-trace run dumbbell [--seed N] [--clients N] [--cc CC] [--profile P] [--binary] -o FILE\n"
               "       hsim-trace text FILE\n"
               "       hsim-trace summarize FILE [--client ADDR] [--metrics MFILE]\n"
               "       hsim-trace profiles [NAME]\n"
               "       hsim-trace diff A B\n",
               scenario_list("|").c_str());
  return 2;
}

int fail(const std::string& message) {
  std::fprintf(stderr, "hsim-trace: %s\n", message.c_str());
  return 2;
}

int write_records(const std::string& scenario,
                  const std::vector<net::TraceRecord>& records,
                  const std::string& out_path, bool binary,
                  unsigned long long seed) {
  const bool ok = binary
                      ? net::write_file(out_path, net::trace_to_binary(records))
                      : net::write_file(out_path, net::trace_to_text(records));
  if (!ok) return fail("cannot write " + out_path);
  std::printf("%s: %zu records (%s, seed %llu) -> %s\n", scenario.c_str(),
              records.size(), binary ? "binary" : "text", seed,
              out_path.c_str());
  return 0;
}

/// Per-link drop table from the run's metrics registry: every labelled link
/// publishes `net.link.<label>.*` counters, so drops are visible at every
/// layer, not just the bottleneck queues.
void print_link_table(const obs::Snapshot& metrics) {
  struct Row {
    std::uint64_t sent = 0, queue = 0, random = 0, burst = 0, outage = 0,
                  corrupted = 0;
  };
  std::map<std::string, Row> rows;
  const std::string prefix = "net.link.";
  for (const auto& [name, value] : metrics.counters) {
    if (name.rfind(prefix, 0) != 0) continue;
    const std::size_t field_dot = name.rfind('.');
    if (field_dot <= prefix.size()) continue;  // unlabelled aggregate counter
    const std::string label = name.substr(prefix.size(),
                                          field_dot - prefix.size());
    const std::string field = name.substr(field_dot + 1);
    Row& row = rows[label];
    if (field == "packets_sent") row.sent = value;
    else if (field == "dropped_queue") row.queue = value;
    else if (field == "dropped_random") row.random = value;
    else if (field == "dropped_burst") row.burst = value;
    else if (field == "dropped_outage") row.outage = value;
    else if (field == "corrupted") row.corrupted = value;
  }
  if (rows.empty()) return;
  std::printf("\nper-link (net.link.<label>.*):\n");
  std::printf("%-14s %10s %8s %8s %8s %8s %9s\n", "link", "sent", "d-queue",
              "d-rand", "d-burst", "d-outage", "corrupted");
  for (const auto& [label, row] : rows) {
    std::printf("%-14s %10llu %8llu %8llu %8llu %8llu %9llu\n", label.c_str(),
                static_cast<unsigned long long>(row.sent),
                static_cast<unsigned long long>(row.queue),
                static_cast<unsigned long long>(row.random),
                static_cast<unsigned long long>(row.burst),
                static_cast<unsigned long long>(row.outage),
                static_cast<unsigned long long>(row.corrupted));
  }
}

/// Per-link netem profile table: radio wakeups, serialisation time spent
/// under 1 Mbit, the bandwidth gauge (last transmission's segment rate) and
/// the standing-queue delay gauge with its bufferbloat peak. Rows exist only
/// for labelled links carrying non-trivial dynamics.
void print_netem_table(const std::map<std::string, std::uint64_t>& counters,
                       const std::map<std::string, std::int64_t>& gauges,
                       const std::map<std::string, std::int64_t>& peaks) {
  struct Row {
    std::uint64_t wakeups = 0, under_1mbit_ns = 0;
    std::int64_t bandwidth = 0, standing_ns = 0, standing_peak_ns = 0;
  };
  std::map<std::string, Row> rows;
  const std::string prefix = "netem.";
  const auto label_of = [&prefix](const std::string& name, std::string* field) {
    const std::size_t field_dot = name.rfind('.');
    if (name.rfind(prefix, 0) != 0 || field_dot <= prefix.size()) return std::string();
    *field = name.substr(field_dot + 1);
    std::string label = name.substr(prefix.size(), field_dot - prefix.size());
    // Two-part field names (bandwidth_bps has no dot, tx_under_1mbit_ns does
    // not either) — nothing else to strip.
    return label;
  };
  for (const auto& [name, value] : counters) {
    std::string field;
    const std::string label = label_of(name, &field);
    if (label.empty()) continue;
    if (field == "radio_wakeups") rows[label].wakeups = value;
    else if (field == "tx_under_1mbit_ns") rows[label].under_1mbit_ns = value;
  }
  for (const auto& [name, value] : gauges) {
    std::string field;
    const std::string label = label_of(name, &field);
    if (label.empty()) continue;
    if (field == "bandwidth_bps") rows[label].bandwidth = value;
    else if (field == "standing_queue_ns") {
      rows[label].standing_ns = value;
      const auto peak = peaks.find(name);
      if (peak != peaks.end()) rows[label].standing_peak_ns = peak->second;
    }
  }
  if (rows.empty()) return;
  std::printf("\nper-link netem profile (netem.<label>.*):\n");
  std::printf("%-14s %8s %14s %12s %11s %11s\n", "link", "wakeups",
              "under-1Mbit-ms", "last-bw-bps", "standing-ms", "peak-q-ms");
  for (const auto& [label, row] : rows) {
    std::printf("%-14s %8llu %14.1f %12lld %11.2f %11.2f\n", label.c_str(),
                static_cast<unsigned long long>(row.wakeups),
                static_cast<double>(row.under_1mbit_ns) / 1e6,
                static_cast<long long>(row.bandwidth),
                static_cast<double>(row.standing_ns) / 1e6,
                static_cast<double>(row.standing_peak_ns) / 1e6);
  }
}

/// A small dumbbell workload with a multi-hop trace on every router: each
/// packet appears once per router crossed, tagged with the router id and the
/// egress queue depth it found at enqueue.
int cmd_run_dumbbell(const std::string& out_path, bool binary,
                     std::uint64_t seed, unsigned clients, tcp::CcKind cc,
                     const std::string& profile) {
  harness::WorkloadConfig config;
  config.num_clients = clients;
  config.master_seed = seed;
  config.topology = harness::TopologyKind::kDumbbell;
  config.client.tcp.cc = cc;
  config.server.tcp.cc = cc;
  config.profile = profile;
  net::PacketTrace hop_trace(/*client_addr=*/1);  // direction anchor: server
  config.hop_trace = &hop_trace;
  const harness::WorkloadResult result =
      harness::run_workload(config, harness::shared_site());
  const int status = write_records("dumbbell", hop_trace.records(), out_path,
                                   binary,
                                   static_cast<unsigned long long>(seed));
  if (status == 0) {
    print_link_table(result.metrics);
    print_netem_table(result.metrics.counters, result.metrics.gauges,
                      result.metrics.gauge_peaks);
  }
  return status;
}

int cmd_run(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  std::string out_path;
  bool binary = false;
  std::uint64_t seed = 1;
  unsigned clients = 4;
  tcp::CcKind cc = tcp::CcKind::kReno;
  std::string profile;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--seed" && i + 1 < args.size()) {
      seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--clients" && i + 1 < args.size()) {
      clients = static_cast<unsigned>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
    } else if (args[i] == "--cc" && i + 1 < args.size()) {
      if (!tcp::parse_cc_kind(args[++i], &cc)) {
        return fail("unknown --cc (try: reno, newreno, cubic, bbr)");
      }
    } else if (args[i] == "--profile" && i + 1 < args.size()) {
      profile = args[++i];
    } else if (args[i] == "--binary") {
      binary = true;
    } else if (args[i] == "-o" && i + 1 < args.size()) {
      out_path = args[++i];
    } else {
      return usage();
    }
  }
  if (out_path.empty()) return usage();
  if (!profile.empty()) {
    // Validate up front for a friendly message instead of a harness throw.
    try {
      bool flat = false;
      (void)harness::resolve_profile(profile, &flat);
    } catch (const std::invalid_argument& e) {
      return fail(e.what());
    }
  }

  if (args[0] == "dumbbell") {
    return cmd_run_dumbbell(out_path, binary, seed, clients, cc, profile);
  }
  harness::ExperimentSpec spec;
  if (!harness::golden_spec_by_name(args[0], &spec)) {
    return fail("unknown scenario '" + args[0] + "' (try: " +
                scenario_list(", ") + ", dumbbell)");
  }
  spec.seed = seed;
  spec.server.tcp.cc = cc;
  spec.client.tcp.cc = cc;
  spec.profile = profile;
  const std::vector<net::TraceRecord> records =
      harness::capture_trace(spec, harness::shared_site());
  return write_records(args[0], records, out_path, binary,
                       static_cast<unsigned long long>(spec.seed));
}

int cmd_text(const std::vector<std::string>& args) {
  if (args.size() != 1) return usage();
  std::vector<net::TraceRecord> records;
  std::string error;
  if (!net::load_trace_file(args[0], &records, &error)) return fail(error);
  std::fputs(net::trace_to_text(records).c_str(), stdout);
  return 0;
}

/// Parses an obs::Snapshot::dump_text dump back into counter/gauge maps
/// ("counter NAME V" / "gauge NAME V peak=P" lines; histograms are skipped).
bool load_metrics_dump(const std::string& path,
                       std::map<std::string, std::uint64_t>* counters,
                       std::map<std::string, std::int64_t>* gauges,
                       std::map<std::string, std::int64_t>* peaks) {
  std::ifstream in(path);
  if (!in) return false;
  std::string kind, name;
  while (in >> kind >> name) {
    if (kind == "counter") {
      unsigned long long v = 0;
      if (!(in >> v)) return false;
      (*counters)[name] = v;
    } else if (kind == "gauge") {
      long long v = 0;
      std::string peak_tok;
      if (!(in >> v >> peak_tok)) return false;
      (*gauges)[name] = v;
      if (peak_tok.rfind("peak=", 0) == 0) {
        (*peaks)[name] = std::strtoll(peak_tok.c_str() + 5, nullptr, 10);
      }
    } else {
      in.ignore(4096, '\n');  // histogram or unknown line: skip the rest
    }
  }
  return true;
}

int cmd_summarize(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  net::IpAddr client_addr = 1;
  std::string metrics_path;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--client" && i + 1 < args.size()) {
      client_addr = static_cast<net::IpAddr>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
    } else if (args[i] == "--metrics" && i + 1 < args.size()) {
      metrics_path = args[++i];
    } else {
      return usage();
    }
  }
  std::vector<net::TraceRecord> records;
  std::string error;
  if (!net::load_trace_file(args[0], &records, &error)) return fail(error);
  const net::TraceSummary s = net::summarize_records(records, client_addr);
  std::printf("records            %zu\n", records.size());
  std::printf("packets            %llu\n",
              static_cast<unsigned long long>(s.packets));
  std::printf("wire bytes         %llu\n",
              static_cast<unsigned long long>(s.wire_bytes));
  std::printf("payload bytes      %llu\n",
              static_cast<unsigned long long>(s.payload_bytes));
  std::printf("packets c->s       %llu\n",
              static_cast<unsigned long long>(s.packets_client_to_server));
  std::printf("packets s->c       %llu\n",
              static_cast<unsigned long long>(s.packets_server_to_client));
  std::printf("overhead           %.2f%%\n", s.overhead_percent);
  std::printf("mean packet size   %.1f\n", s.mean_packet_size);
  std::printf("elapsed            %.6f s\n", s.elapsed_seconds());
  if (net::trace_has_hops(records)) {
    std::printf("\nper-hop (multi-hop trace):\n");
    std::printf("%-8s %10s %12s %10s %10s %9s %8s\n", "hop", "packets",
                "wire-bytes", "c->s", "s->c", "mean-q", "max-q");
    for (const net::HopSummary& h : net::summarize_by_hop(records,
                                                          client_addr)) {
      char hop_name[16];
      if (h.hop_router < 0) {
        std::snprintf(hop_name, sizeof hop_name, "edge");
      } else {
        std::snprintf(hop_name, sizeof hop_name, "r%d", h.hop_router);
      }
      std::printf("%-8s %10llu %12llu %10llu %10llu %9.2f %8u\n", hop_name,
                  static_cast<unsigned long long>(h.summary.packets),
                  static_cast<unsigned long long>(h.summary.wire_bytes),
                  static_cast<unsigned long long>(
                      h.summary.packets_client_to_server),
                  static_cast<unsigned long long>(
                      h.summary.packets_server_to_client),
                  h.mean_queue_depth, h.max_queue_depth);
    }
  }
  if (!metrics_path.empty()) {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges, peaks;
    if (!load_metrics_dump(metrics_path, &counters, &gauges, &peaks)) {
      return fail("cannot read metrics dump " + metrics_path);
    }
    print_netem_table(counters, gauges, peaks);
    const auto wakeups = counters.find("netem.radio_wakeups");
    const auto under = counters.find("netem.tx_under_1mbit_ns");
    if (wakeups != counters.end() || under != counters.end()) {
      std::printf("\nnetem aggregate: %llu radio wakeups, %.1f ms serialised under 1 Mbit\n",
                  static_cast<unsigned long long>(
                      wakeups != counters.end() ? wakeups->second : 0),
                  static_cast<double>(
                      under != counters.end() ? under->second : 0) / 1e6);
    }
  }
  return 0;
}

int cmd_profiles(const std::vector<std::string>& args) {
  if (args.empty()) {
    for (const std::string& name : netem::named_profile_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (args.size() != 1) return usage();
  const std::optional<netem::PathProfile> p = netem::named_profile(args[0]);
  if (!p) return fail("unknown profile '" + args[0] + "'");
  std::fputs(netem::profile_to_text(*p).c_str(), stdout);
  return 0;
}

int cmd_diff(const std::vector<std::string>& args) {
  if (args.size() != 2) return usage();
  std::vector<net::TraceRecord> a, b;
  std::string error;
  if (!net::load_trace_file(args[0], &a, &error)) return fail(error);
  if (!net::load_trace_file(args[1], &b, &error)) return fail(error);
  const net::TraceDiff diff = net::diff_traces(a, b);
  if (diff.identical) {
    std::printf("identical: %zu records\n", a.size());
    return 0;
  }
  std::fputs(diff.report.c_str(), stdout);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "run") return cmd_run(args);
  if (command == "text") return cmd_text(args);
  if (command == "summarize") return cmd_summarize(args);
  if (command == "profiles") return cmd_profiles(args);
  if (command == "diff") return cmd_diff(args);
  return usage();
}
