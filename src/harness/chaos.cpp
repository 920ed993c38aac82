#include "harness/chaos.hpp"

#include <algorithm>
#include <cstdlib>

namespace hsim::harness {

std::string_view to_string(ChaosFault fault) {
  switch (fault) {
    case ChaosFault::kNone: return "none";
    case ChaosFault::kBurstLoss: return "burst-loss";
    case ChaosFault::kOutage: return "outage";
    case ChaosFault::kLinkFlaps: return "link-flaps";
    case ChaosFault::kDuplication: return "duplication";
    case ChaosFault::kReordering: return "reordering";
    case ChaosFault::kCorruption: return "corruption";
    case ChaosFault::kServerStall: return "server-stall";
    case ChaosFault::kPrematureClose: return "premature-close";
    case ChaosFault::kServerErrors: return "server-errors";
  }
  return "?";
}

std::vector<ChaosFault> all_chaos_faults() {
  return {ChaosFault::kBurstLoss,  ChaosFault::kOutage,
          ChaosFault::kLinkFlaps,  ChaosFault::kDuplication,
          ChaosFault::kReordering, ChaosFault::kCorruption,
          ChaosFault::kServerStall, ChaosFault::kPrematureClose,
          ChaosFault::kServerErrors};
}

namespace {

void mutate_both(ExperimentSpec& spec,
                 const std::function<void(net::LinkConfig&)>& edit) {
  spec.mutate_channel = [edit](net::ChannelConfig& channel) {
    edit(channel.a_to_b);
    edit(channel.b_to_a);
  };
}

}  // namespace

void apply_chaos(ChaosFault fault, ExperimentSpec& spec) {
  // Arm the client's recovery machinery for every regime. Bounded attempts
  // plus per-request and whole-page deadlines are what turn each fault into
  // "recovered" or "cleanly failed" — never a hang.
  spec.client.max_attempts = 8;
  spec.client.request_deadline = sim::seconds(5);
  spec.client.page_deadline = sim::seconds(120);
  spec.client.retry_backoff = sim::milliseconds(100);
  spec.client.retry_server_errors = true;

  switch (fault) {
    case ChaosFault::kNone:
      break;
    case ChaosFault::kBurstLoss:
      // ~2.6% average loss concentrated in bursts of ~3 packets.
      mutate_both(spec, [](net::LinkConfig& link) {
        link.gilbert_elliott.enabled = true;
        link.gilbert_elliott.p_good_to_bad = 0.02;
        link.gilbert_elliott.p_bad_to_good = 0.3;
        link.gilbert_elliott.loss_good = 0.001;
        link.gilbert_elliott.loss_bad = 0.4;
      });
      break;
    case ChaosFault::kOutage:
      // The link dies for 1.5 s in the middle of the retrieval; TCP rides
      // it out with retransmission backoff (or the request deadline reissues
      // on a fresh connection once the link returns).
      mutate_both(spec, [](net::LinkConfig& link) {
        link.outages.push_back(
            {sim::milliseconds(800), sim::milliseconds(2300)});
      });
      break;
    case ChaosFault::kLinkFlaps:
      mutate_both(spec, [](net::LinkConfig& link) {
        const auto flaps = net::make_flaps(
            sim::milliseconds(500), /*down_for=*/sim::milliseconds(200),
            /*up_for=*/sim::milliseconds(800), /*count=*/4);
        link.outages.insert(link.outages.end(), flaps.begin(), flaps.end());
      });
      break;
    case ChaosFault::kDuplication:
      mutate_both(spec, [](net::LinkConfig& link) {
        link.duplicate_probability = 0.08;
      });
      break;
    case ChaosFault::kReordering:
      mutate_both(spec, [](net::LinkConfig& link) {
        link.reorder_probability = 0.15;
        link.reorder_extra_delay = sim::milliseconds(30);
      });
      break;
    case ChaosFault::kCorruption:
      mutate_both(spec, [](net::LinkConfig& link) {
        link.corrupt_probability = 0.03;
      });
      break;
    case ChaosFault::kServerStall:
      // The first accepted connection wedges after 30 KB: it stays open but
      // sends nothing more. Only the client's request deadline escapes this.
      spec.server.faults.stall_after_bytes = 30'000;
      spec.server.faults.faulty_connection_limit = 1;
      break;
    case ChaosFault::kPrematureClose:
      // The first two connections die mid-response, discarding buffered
      // output. Truncated Content-Length bodies never parse as complete, so
      // the victims requeue and re-issue on fresh connections.
      spec.server.faults.premature_close_after_bytes = 25'000;
      spec.server.faults.faulty_connection_limit = 2;
      break;
    case ChaosFault::kServerErrors:
      spec.server.faults.error_probability = 0.1;
      break;
  }
}

bool cache_matches_site(const client::Cache& cache,
                        const content::MicroscapeSite& site,
                        const std::string& root) {
  const client::CacheEntry* html = cache.find(root);
  if (html == nullptr) return false;
  if (!html->body.equals(std::string_view(site.html))) return false;
  for (const content::SiteImage& image : site.images) {
    const client::CacheEntry* entry = cache.find(image.path);
    if (entry == nullptr || entry->body != image.gif_bytes) return false;
  }
  return true;
}

ChaosOutcome run_chaos(ChaosFault fault, client::ProtocolMode mode,
                       const content::MicroscapeSite& site,
                       std::uint64_t seed, TopologyKind topology) {
  ExperimentSpec spec;
  spec.network = wan_profile();
  spec.client = robot_config(mode);
  spec.scenario = Scenario::kFirstVisit;
  spec.seed = seed;
  apply_chaos(fault, spec);
  // CI matrix hook: HSIM_CC=reno|newreno|cubic|bbr reruns the whole chaos
  // suite under a different congestion-control module without a rebuild.
  // Unset or unknown values keep the configs' default (Reno, byte-exact).
  if (const char* env_cc = std::getenv("HSIM_CC")) {
    tcp::CcKind kind = tcp::CcKind::kReno;
    if (tcp::parse_cc_kind(env_cc, &kind)) {
      spec.client.tcp.cc = kind;
      spec.server.tcp.cc = kind;
    }
  }

  ChaosOutcome outcome;
  if (topology == TopologyKind::kStar) {
    spec.inspect_robot = [&](client::Robot& robot) {
      outcome.byte_exact = cache_matches_site(robot.cache(), site);
    };
    outcome.result = run_once(spec, site);
    return outcome;
  }

  // Topology substrate: the same armed client and faulted configuration, but
  // the single retrieval crosses routers and queue disciplines. Channel
  // mutations land on the client's access leg; server faults ride through
  // unchanged.
  WorkloadConfig wc;
  wc.num_clients = 1;
  wc.arrivals = ArrivalProcess::kFixedInterval;
  wc.topology = topology;
  wc.access = wan_profile();
  wc.mutate_access = spec.mutate_channel;
  wc.server = spec.server;
  wc.client = spec.client;
  wc.master_seed = seed;
  wc.verify_cache = true;
  // The armed page deadline bounds the retrieval; keep the workload horizon
  // comfortably past it so the verdict is the robot's, not the harness's.
  wc.horizon = sim::seconds(300);
  WorkloadResult wr = run_workload(wc, site);

  const ClientOutcome& client = wr.clients.at(0);
  outcome.byte_exact = client.byte_exact;
  outcome.result.trace = wr.bottleneck;
  outcome.result.robot = client.stats;
  outcome.result.server = wr.server;
  outcome.result.metrics = std::move(wr.metrics);
  return outcome;
}

}  // namespace hsim::harness
