// perfbench: one run of one named workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--expect-fingerprint <hex>] [--spans <path>]
//
// Set-up (building the shared Microscape site: the content and deflate
// layers) is timed on its own and never inside a run window. The workload is
// then repeated until --seconds of wall time have passed (at least three
// repetitions); every repetition is checked and fingerprinted, and timings
// are reported as medians. --trace 1 runs untraced and traced repetitions
// (metrics_sink and per-simulated-second epoch callbacks stamp the time),
// then replays each layer's public API, and prints the per-layer metrics.
//
// The last line of standard output is one JSON object: the stamp, the check
// verdict, the fingerprint and the metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "content/microscape.hpp"
#include "harness/experiment.hpp"
#include "replays.hpp"
#include "workloads.hpp"

namespace perfbench {

double process_cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(u.ru_utime) + sec(u.ru_stime);
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Peak resident memory (VmHWM) in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::size_t Spans::add(std::string name, std::size_t parent,
                       Clock::time_point start, Clock::time_point end) {
  spans_.push_back({std::move(name), parent, seconds_between(origin_, start),
                    seconds_between(origin_, end)});
  return spans_.size() - 1;
}

void Spans::set_end(std::size_t id, Clock::time_point end) {
  spans_.at(id).end_s = seconds_between(origin_, end);
}

void Spans::write_json(std::ostream& out) const {
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":" << json_string(s.name)
        << ",\"parent\":"
        << (s.parent == kNoParent ? std::string("null")
                                  : std::to_string(s.parent))
        << ",\"start_s\":" << json_number(s.start_s)
        << ",\"end_s\":" << json_number(s.end_s) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  std::string expect_fingerprint;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--expect-fingerprint <hex>] [--spans <path>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--expect-fingerprint") {
        a.expect_fingerprint = value;
      } else if (flag == "--spans") {
        a.spans_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!is_workload(a.workload)) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Repetitions of one kind (untraced or traced) until `budget_s` has passed.
struct Series {
  std::vector<Rep> reps;
  std::vector<double> wall_s, cpu_s, cell_ms;
  std::uint64_t pages = 0;

  void add(Rep rep) {
    wall_s.push_back(rep.wall_s);
    cpu_s.push_back(rep.cpu_s);
    cell_ms.insert(cell_ms.end(), rep.cell_ms.begin(), rep.cell_ms.end());
    pages += rep.pages;
    reps.push_back(std::move(rep));
  }
};

Series run_series(const Args& a, bool traced, double budget_s,
                  std::size_t min_reps, Spans& spans) {
  Series s;
  const Clock::time_point start = Clock::now();
  while (s.reps.size() < min_reps ||
         seconds_between(start, Clock::now()) < budget_s) {
    const Clock::time_point t0 = Clock::now();
    const std::size_t rep_span =
        spans.add(traced ? "rep.traced" : "rep", Spans::kNoParent, t0, t0);
    RepOptions o;
    o.seed = a.seed;
    o.traced = traced;
    o.spans = &spans;
    o.parent = rep_span;
    s.add(run_rep(a.workload, o));
    spans.set_end(rep_span, Clock::now());
  }
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse_args(argc, argv);

  // The harness reads these at run time; any of them would silently change
  // what a workload runs (engine, link profile, congestion control).
  for (const char* var : {"HSIM_THREADS", "HSIM_PROFILE", "HSIM_CC"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "perfbench: refusing to run with " << var
                << " set; unset it (run.py clears it)\n";
      return 3;
    }
  }

  Spans spans;
  std::vector<std::string> errors;

  // ---- Set-up: the shared site once, then rebuilt for two more samples ---
  std::vector<double> setup_samples;
  setup_samples.push_back(timed_span(spans, "setup.shared_site",
                                     Spans::kNoParent,
                                     [] { (void)hsim::harness::shared_site(); }));
  for (int i = 0; i < 2; ++i) {
    setup_samples.push_back(timed_span(spans, "setup.build_microscape",
                                       Spans::kNoParent, [] {
                                         hsim::content::build_microscape();
                                       }));
  }
  const double setup_s = median(setup_samples);

  // ---- Repetitions --------------------------------------------------------
  // peak_rss_mb covers the untraced repetitions only: set-up's peak and the
  // reference run below are outside it (the site itself stays resident).
  const bool peak_reset = reset_peak_rss();
  const double untraced_budget = a.trace ? a.seconds / 2 : a.seconds;
  Series plain = run_series(a, false, untraced_budget, a.trace ? 2 : 3, spans);
  const double peak_mb = peak_rss_mb();
  Series traced;
  if (a.trace) traced = run_series(a, true, a.seconds / 2, 2, spans);

  // ---- Reference for the sharded workload: the same seed, one thread -----
  std::optional<Rep> reference;
  if (a.workload == "dumbbell-h11-t4") {
    RepOptions o;
    o.seed = a.seed;
    reference = run_rep("dumbbell-h11", o);
    for (const std::string& e : reference->errors) {
      errors.push_back("reference: " + e);
    }
  }

  const Fingerprint fp = plain.reps.front().fp;
  const auto check_rep = [&](const Rep& r, const char* kind, std::size_t i) {
    for (const std::string& e : r.errors) {
      errors.push_back(std::string(kind) + " rep " + std::to_string(i) + ": " + e);
    }
  };
  for (std::size_t i = 0; i < plain.reps.size(); ++i) {
    check_rep(plain.reps[i], "untraced", i);
    if (!(plain.reps[i].fp == fp)) {
      errors.push_back("fingerprint of rep " + std::to_string(i) +
                       " differs: " + plain.reps[i].fp.text() + " vs " + fp.text());
    }
  }
  for (std::size_t i = 0; i < traced.reps.size(); ++i) {
    check_rep(traced.reps[i], "traced", i);
    Fingerprint t = traced.reps[i].fp;
    t.events -= epoch_events(a.workload);  // epochs are events of their own
    if (!(t == fp)) {
      errors.push_back("traced fingerprint differs: " + t.text() + " vs " +
                       fp.text());
    }
  }
  if (reference && !(reference->fp == fp)) {
    errors.push_back("sharded fingerprint " + fp.text() +
                     " differs from the single-queue run " +
                     reference->fp.text());
  }
  if (!a.expect_fingerprint.empty() && a.expect_fingerprint != fp.hex()) {
    errors.push_back("fingerprint " + fp.hex() + " is not the pinned " +
                     a.expect_fingerprint);
  }

  const std::uint64_t attempted =
      plain.pages + traced.pages + (reference ? reference->pages : 0);
  // A run that fails any correctness check counts all of its pages as failed.
  std::uint64_t failed = errors.empty() ? 0 : attempted;

  const Rep& first = plain.reps.front();
  const double run_s = median(plain.wall_s);
  MetricTable m;
  if (!a.trace) {
    m.set("setup_s", setup_s, "s");
    m.set("run_s", run_s, "s");
    m.set("packets_per_s", ratio(first.counts.at("net.packets"), run_s), "1/s");
    m.set("pages_per_s", ratio(static_cast<double>(first.pages), run_s), "1/s");
    m.set("cpu_s", median(plain.cpu_s), "s");
    m.set("peak_rss_mb", peak_mb, "MB");
    m.set("pages_completed_ratio",
          ratio(static_cast<double>(attempted - failed),
                static_cast<double>(attempted)),
          "ratio");
  } else {
    const auto c = [&first](const char* name) {
      const auto it = first.counts.find(name);
      return it == first.counts.end() ? 0.0 : it->second;
    };
    std::vector<double> simulate, teardown, per_sim_s;
    for (const Rep& r : traced.reps) {
      simulate.push_back(r.simulate_s);
      teardown.push_back(r.teardown_s);
      per_sim_s.insert(per_sim_s.end(), r.wall_ms_per_sim_s.begin(),
                       r.wall_ms_per_sim_s.end());
    }
    const double events = c("sim.events");
    const double traced_events =
        events > 0 ? events + static_cast<double>(epoch_events(a.workload)) : 0;

    m.set("sim.events", events, "count");
    m.set("sim.ns_per_event", 1e9 * ratio(median(simulate), traced_events), "ns");
    m.set("sim.wall_ms_per_sim_s.p50", median(per_sim_s), "ms");
    m.set("sim.wall_ms_per_sim_s.p99", percentile(per_sim_s, 0.99), "ms");
    m.set("net.packets", c("net.packets"), "count");
    m.set("net.wire_bytes", c("net.wire_bytes"), "bytes");
    m.set("net.drops", c("net.drops"), "count");
    m.set("netem.radio_wakeups", c("netem.radio_wakeups"), "count");
    m.set("topo.forwarded", c("topo.forwarded"), "count");
    m.set("topo.queue.drops", c("topo.queue.drops"), "count");
    m.set("tcp.segments", c("tcp.segments"), "count");
    m.set("tcp.retransmits", c("tcp.retransmits"), "count");
    m.set("tcp.retransmit_ratio", ratio(c("tcp.retransmits"), c("tcp.segments")),
          "ratio");
    m.set("tcp.rto_fires", c("tcp.rto_fires"), "count");
    m.set("tcp.connections", c("tcp.connections"), "count");
    m.set("http.requests", c("http.requests"), "count");
    m.set("h2.frames", c("h2.frames"), "count");
    m.set("h2.flow_stalls", c("h2.flow_stalls"), "count");
    m.set("h2.push_accept_ratio",
          ratio(c("h2.pushes_accepted"), c("h2.pushes_promised")), "ratio");
    m.set("server.connections_queued", c("server.connections_queued"), "count");
    m.set("server.max_open", c("server.max_open"), "count");
    m.set("client.requests", c("client.requests"), "count");
    m.set("client.retries", c("client.retries"), "count");
    m.set("client.retry_ratio", ratio(c("client.retries"), c("client.requests")),
          "ratio");
    m.set("content.site_build_s", setup_samples.front(), "s");
    // Untraced cells: one run_once call each in paper-tables. A fleet has one
    // cell per repetition, so there the p50 is run_s and the p95 is close to
    // the slowest repetition.
    m.set("harness.cell_ms.p50", median(plain.cell_ms), "ms");
    m.set("harness.cell_ms.p95", percentile(plain.cell_ms, 0.95), "ms");
    m.set("harness.cells", static_cast<double>(plain.cell_ms.size()), "count");
    m.set("harness.simulate_s", median(simulate), "s");
    m.set("harness.teardown_s", median(teardown), "s");
    m.set("harness.trace_overhead_s", median(traced.wall_s) - run_s, "s");

    ReplayInputs in;
    in.workload = a.workload;
    in.seed = a.seed;
    in.pages = static_cast<unsigned>(first.pages);
    in.counts = first.counts;
    in.active_sim_s = first.active_sim_s;
    const Clock::time_point r0 = Clock::now();
    const std::size_t replays = spans.add("replays", Spans::kNoParent, r0, r0);
    try {
      run_replays(in, spans, replays, m);
    } catch (const std::exception& e) {
      errors.push_back(std::string("replay failed: ") + e.what());
      failed = attempted;
    }
    spans.set_end(replays, Clock::now());
  }

  if (!a.spans_path.empty()) {
    std::ofstream out(a.spans_path);
    spans.write_json(out);
    if (!out) errors.push_back("cannot write spans to " + a.spans_path);
  }

  const bool correct = errors.empty();
  std::ostringstream o;
  o << "{\"workload\":" << json_string(a.workload) << ",\"seed\":" << a.seed
    << ",\"trace\":" << (a.trace ? 1 : 0)
    << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
    << ",\"asserts\":false"
#else
    << ",\"asserts\":true"
#endif
    << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
    << ",\"worker_threads\":"
    << (a.workload == "paper-tables"
            ? 0u
            : fleet_config(a.workload, a.seed).threads)
    << ",\"untraced_reps\":" << plain.reps.size()
    << ",\"traced_reps\":" << traced.reps.size()
    << ",\"peak_rss_reset\":" << (peak_reset ? "true" : "false")
    << ",\"fingerprint\":" << json_string(fp.hex())
    << ",\"fingerprint_fields\":" << json_string(fp.text())
    << ",\"correct\":" << (correct ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed
    << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    o << (i ? "," : "") << json_string(errors[i]);
  }
  o << "],\"metrics\":{";
  for (std::size_t i = 0; i < m.rows().size(); ++i) {
    const Metric& r = m.rows()[i];
    o << (i ? "," : "") << json_string(r.name) << ":{\"value\":"
      << json_number(r.value) << ",\"unit\":" << json_string(r.unit) << "}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
  return correct ? 0 : 1;
}
