#include "harness/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "harness/chaos.hpp"
#include "net/channel.hpp"

namespace hsim::harness {

// Engine lookahead uses net::config_min_latency (found by ADL below):
// identical to net::Link::min_remote_latency(), usable before any link
// exists (the engine needs its lookahead before the queues it carries).
// Netem dynamics only ever raise the bound (minimum extra segment latency).

unsigned threads_from_env() {
  const char* env = std::getenv("HSIM_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || (end != nullptr && *end != '\0')) return 0;
  return static_cast<unsigned>(std::min(v, 1024ul));
}

sim::Time workload_lookahead(const WorkloadConfig& config) {
  net::ChannelConfig access = config.access.channel_config();
  if (config.mutate_access) config.mutate_access(access);
  apply_profile_overlay(config.profile, access);
  if (config.topology == TopologyKind::kStar) {
    // Crossing links: every client uplink (a_to_b) into the funnel, and the
    // bottleneck downlink fanning out to the client shards.
    net::LinkConfig bn;
    bn.propagation_delay = config.bottleneck_delay;
    return std::min(config_min_latency(access.a_to_b),
                    config_min_latency(bn));
  }
  // Dumbbell shapes: only the client access legs cross (uplink into the gate
  // router, gate's fan-out egress back to the client host); routers and the
  // bottleneck pair(s) are wholly shard-0.
  return std::min(config_min_latency(access.a_to_b),
                  config_min_latency(access.b_to_a));
}

sim::Time run_once_lookahead(const ExperimentSpec& spec) {
  net::ChannelConfig channel = spec.network.channel_config();
  if (spec.mutate_channel) spec.mutate_channel(channel);
  apply_profile_overlay(spec.profile, channel, "access");
  return std::min(config_min_latency(channel.a_to_b),
                  config_min_latency(channel.b_to_a));
}

namespace {
std::vector<std::unique_ptr<obs::Registry>> make_registries(std::size_t n) {
  std::vector<std::unique_ptr<obs::Registry>> regs;
  for (std::size_t s = 0; s < std::max<std::size_t>(n, 1); ++s) {
    regs.push_back(std::make_unique<obs::Registry>());
  }
  return regs;
}
}  // namespace

ShardedRun::ShardedRun(std::size_t shards, unsigned threads,
                       sim::Time lookahead)
    : regs(make_registries(shards)), engine({shards, threads, lookahead}) {
  engine.set_shard_enter([this](std::size_t s) { use(s); });
}

obs::Registry& ShardedRun::merge() {
  obs::Registry& merged = *regs[0];
  for (std::size_t s = 1; s < regs.size(); ++s) merged.merge_from(*regs[s]);
  obs::set_registry(&merged);
  return merged;
}

void cross_deliver(sim::ShardedEngine& engine, std::size_t dst,
                   net::Link& link) {
  net::PacketSink* sink = link.sink();
  link.set_remote_deliver(
      [&engine, dst, sink](sim::Time when, net::Packet packet) {
        engine.post(dst, when, [sink, p = std::move(packet)]() mutable {
          sink->deliver(std::move(p));
        });
      });
}

}  // namespace hsim::harness
