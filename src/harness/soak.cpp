#include "harness/soak.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "net/trace_io.hpp"

namespace hsim::harness {

bool SoakResult::ok() const {
  if (!violations.empty() || violations_suppressed != 0) return false;
  if (!workload.all_resolved()) return false;
  if (workload.server_open_after_drain != 0) return false;
  for (const ClientOutcome& c : workload.clients) {
    if (c.leaked_connections != 0) return false;
    if (c.stats.requests_failed != c.stats.failures.size()) return false;
  }
  return true;
}

WorkloadConfig soak_workload() {
  WorkloadConfig wc;
  wc.num_clients = 100;
  wc.topology = TopologyKind::kDumbbellRedundant;
  wc.horizon = sim::seconds(120);
  wc.drain = sim::seconds(60);
  wc.epoch = sim::seconds(5);
  return wc;
}

std::vector<TopoFaultEvent> default_soak_timeline() {
  return {
      // Long enough past the detection delay that failover *and* failback
      // both fire while clients are mid-page.
      {TopoFaultKind::kBottleneckFlap, "", sim::seconds(3),
       sim::milliseconds(1500)},
      {TopoFaultKind::kRouterCrash, "gate", sim::seconds(8),
       sim::milliseconds(800)},
      {TopoFaultKind::kQueueWedge, "bnA.up", sim::seconds(12),
       sim::milliseconds(1200)},
      {TopoFaultKind::kBottleneckFlap, "", sim::seconds(16),
       sim::milliseconds(400)},
  };
}

namespace {

void add_violation(SoakResult& out, std::string message) {
  if (out.violations.size() >= SoakResult::kMaxViolations) {
    ++out.violations_suppressed;
    return;
  }
  out.violations.push_back(std::move(message));
}

/// One sweep of the conservation oracles over the live topology. `where`
/// stamps each violation with the epoch it surfaced in.
void check_conservation(SoakResult& out, const topo::Topology& topo,
                        const std::string& where) {
  for (const auto& router : topo.routers()) {
    std::uint64_t offered = 0, enqueued = 0;
    for (std::size_t i = 0; i < router->egress_count(); ++i) {
      const topo::QueueDisc& disc = router->egress_queue(i);
      const topo::QueueStats& qs = disc.stats();
      offered += qs.offered_packets;
      enqueued += qs.enqueued_packets;
      if (qs.offered_packets != qs.enqueued_packets + qs.dropped()) {
        std::ostringstream oss;
        oss << where << " queue " << disc.label() << ": offered "
            << qs.offered_packets << " != enqueued " << qs.enqueued_packets
            << " + dropped " << qs.dropped();
        add_violation(out, oss.str());
      }
      const std::uint64_t accounted = qs.dequeued_packets +
                                      qs.dropped_flushed +
                                      disc.depth_packets();
      if (qs.enqueued_packets != accounted) {
        std::ostringstream oss;
        oss << where << " queue " << disc.label() << ": enqueued "
            << qs.enqueued_packets << " != dequeued " << qs.dequeued_packets
            << " + flushed " << qs.dropped_flushed << " + depth "
            << disc.depth_packets();
        add_violation(out, oss.str());
      }
      // Everything the discipline handed the link must be on the wire, in a
      // drop bucket, or still in the transmitter's own (back-pressured)
      // queue. Duplicates deliver twice but are sent once, so they cancel.
      const net::Link* link = router->egress_link(i);
      const net::LinkStats& ls = link->stats();
      const std::uint64_t link_accounted =
          ls.packets_sent + ls.packets_dropped_queue +
          ls.packets_dropped_random + ls.packets_dropped_burst +
          ls.packets_dropped_outage + link->queued_packets();
      if (qs.dequeued_packets != link_accounted) {
        std::ostringstream oss;
        oss << where << " egress " << disc.label() << ": dequeued "
            << qs.dequeued_packets << " != link sent " << ls.packets_sent
            << " + drops "
            << (link_accounted - ls.packets_sent - link->queued_packets())
            << " + in-flight " << link->queued_packets();
        add_violation(out, oss.str());
      }
    }
    const topo::RouterStats& rs = router->stats();
    if (rs.forwarded != enqueued || offered != rs.forwarded + rs.dropped_queue) {
      std::ostringstream oss;
      oss << where << " router " << router->name() << ": forwarded "
          << rs.forwarded << " / dropped_queue " << rs.dropped_queue
          << " vs egress offered " << offered << " / enqueued " << enqueued;
      add_violation(out, oss.str());
    }
  }
}

}  // namespace

SoakResult run_soak(const SoakConfig& config,
                    const content::MicroscapeSite& site) {
  if (config.workload.topology == TopologyKind::kStar) {
    throw std::invalid_argument("run_soak needs a dumbbell topology");
  }
  if (config.workload.mutate_bottleneck || config.workload.hop_trace ||
      config.workload.on_topology || config.workload.on_epoch) {
    throw std::invalid_argument(
        "run_soak owns mutate_bottleneck, hop_trace, on_topology and "
        "on_epoch");
  }
  SoakResult out;
  WorkloadConfig wc = config.workload;

  // Arm whatever recovery knob the caller left at "hang forever" — the soak
  // contract is that every client reaches a verdict.
  if (wc.client.max_attempts == 0) wc.client.max_attempts = 8;
  if (wc.client.request_deadline == 0) wc.client.request_deadline = sim::seconds(10);
  if (wc.client.page_deadline == 0) wc.client.page_deadline = wc.horizon;
  if (wc.client.retry_backoff == 0) wc.client.retry_backoff = sim::milliseconds(100);
  wc.client.retry_server_errors = true;

  // Flap events become outage windows on the primary bottleneck pair; the
  // link layer sorts them and rejects overlap with a clear error.
  std::vector<net::OutageWindow> flaps;
  for (const TopoFaultEvent& ev : config.timeline) {
    if (ev.kind != TopoFaultKind::kBottleneckFlap) continue;
    flaps.push_back({ev.at, ev.at + ev.duration});
  }
  if (!flaps.empty()) {
    wc.mutate_bottleneck = [flaps](net::LinkConfig& link) {
      link.outages.insert(link.outages.end(), flaps.begin(), flaps.end());
    };
  }

  net::PacketTrace hop_trace;
  if (!config.failing_artifact_prefix.empty()) wc.hop_trace = &hop_trace;

  // Crash and wedge events are scheduled against the live topology; the
  // pointer is only valid inside run_workload, which is also the only place
  // the epoch oracles run.
  const topo::Topology* live_topo = nullptr;
  wc.on_topology = [&](topo::Topology& topo, sim::EventQueue& queue) {
    live_topo = &topo;
    for (const TopoFaultEvent& ev : config.timeline) {
      switch (ev.kind) {
        case TopoFaultKind::kBottleneckFlap:
          break;  // armed via mutate_bottleneck above
        case TopoFaultKind::kRouterCrash: {
          topo::Router* router = topo.router(ev.target);
          if (router == nullptr) {
            add_violation(out, "timeline: unknown router '" + ev.target + "'");
            break;
          }
          router->schedule_crash(ev.at, ev.at + ev.duration);
          break;
        }
        case TopoFaultKind::kQueueWedge: {
          const net::Link* link = topo.link(ev.target);
          topo::Router* owner = nullptr;
          std::size_t index = 0;
          if (link != nullptr) {
            for (const auto& router : topo.routers()) {
              for (std::size_t i = 0; i < router->egress_count(); ++i) {
                if (router->egress_link(i) == link) {
                  owner = router.get();
                  index = i;
                }
              }
            }
          }
          if (owner == nullptr) {
            add_violation(out,
                          "timeline: no egress feeds link '" + ev.target + "'");
            break;
          }
          queue.schedule_at(
              ev.at, [owner, index] { owner->set_egress_wedged(index, true); });
          queue.schedule_at(ev.at + ev.duration, [owner, index] {
            owner->set_egress_wedged(index, false);
          });
          break;
        }
      }
    }
  };

  wc.on_epoch = [&] {
    ++out.epochs_checked;
    const std::string where = "epoch " + std::to_string(out.epochs_checked);
    if (live_topo != nullptr) check_conservation(out, *live_topo, where);
  };

  out.workload = run_workload(wc, site);
  live_topo = nullptr;  // died with run_workload's stack frame

  for (const ClientOutcome& c : out.workload.clients) {
    out.retries += c.stats.retries;
    out.retry_tokens_consumed += c.stats.retry_tokens_consumed;
    out.retry_tokens_refunded += c.stats.retry_tokens_refunded;
    out.retry_budget_exhausted += c.stats.retry_budget_exhausted;
    out.retry_after_honored += c.stats.retry_after_honored;
    out.body_bytes += c.stats.body_bytes;
    if (!c.resolved) {
      add_violation(out, "client " + std::to_string(c.id) +
                             " never reached a verdict");
    }
    if (c.stats.requests_failed != c.stats.failures.size()) {
      add_violation(out, "client " + std::to_string(c.id) + ": " +
                             std::to_string(c.stats.requests_failed) +
                             " failed requests but " +
                             std::to_string(c.stats.failures.size()) +
                             " attributions");
    }
  }

  if (!out.ok() && !config.failing_artifact_prefix.empty()) {
    net::write_file(config.failing_artifact_prefix + ".failing.trace",
                    net::trace_to_text(hop_trace.records()));
    net::write_file(config.failing_artifact_prefix + ".metrics.txt",
                    out.workload.metrics.dump_text());
  }
  return out;
}

}  // namespace hsim::harness
