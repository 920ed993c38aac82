#include "harness/experiment.hpp"

#include <algorithm>
#include <iterator>

#include "harness/parallel.hpp"
#include "server/static_site.hpp"

namespace hsim::harness {

namespace {
constexpr net::IpAddr kClientAddr = 1;
constexpr net::IpAddr kServerAddr = 2;
constexpr net::Port kHttpPort = 80;
}  // namespace

std::string_view to_string(Scenario s) {
  return s == Scenario::kFirstVisit ? "First Time Retrieval"
                                    : "Cache Validation";
}

client::ClientConfig robot_config(client::ProtocolMode mode) {
  client::ClientConfig c;
  c.mode = mode;
  switch (mode) {
    case client::ProtocolMode::kHttp10Parallel:
      c.max_connections = 4;  // Navigator's default, as the paper set it
      c.revalidation = client::RevalidationStyle::kGetPlusHead;
      // libwww 4.1D had no persistent cache; responses cost only parsing.
      c.per_response_cpu = sim::milliseconds(2);
      break;
    case client::ProtocolMode::kHttp11Persistent:
    case client::ProtocolMode::kHttp11Pipelined:
    case client::ProtocolMode::kHttp11PipelinedCompressed:
    case client::ProtocolMode::kH2:
      c.max_connections = 1;
      c.revalidation = client::RevalidationStyle::kConditionalGet;
      break;
  }
  return c;
}

client::ClientConfig netscape_client_config() {
  client::ClientConfig c;
  c.mode = client::ProtocolMode::kHttp10Parallel;
  c.max_connections = 4;
  c.profile = client::netscape_profile();
  c.revalidation = client::RevalidationStyle::kConditionalGet;
  c.use_etags = false;  // HTTP/1.0 validators are dates
  c.per_response_cpu = sim::milliseconds(4);
  return c;
}

client::ClientConfig msie_client_config(bool broken_revalidation) {
  client::ClientConfig c;
  c.mode = client::ProtocolMode::kHttp11Persistent;
  c.max_connections = 4;
  c.profile = client::msie_profile();
  c.revalidation = broken_revalidation
                       ? client::RevalidationStyle::kGetPlusHead
                       : client::RevalidationStyle::kConditionalGet;
  c.per_response_cpu = sim::milliseconds(4);
  return c;
}

RunResult run_once(const ExperimentSpec& spec,
                   const content::MicroscapeSite& site) {
  // Shard 0 = client side, shard S-1 = server side: two shards when threads
  // are asked for (config knob, else HSIM_THREADS) and the channel has a
  // nanosecond of lookahead, else one.
  const unsigned threads =
      spec.threads != 0 ? spec.threads : threads_from_env();
  const sim::Time lookahead = threads != 0 ? run_once_lookahead(spec) : 0;
  const std::size_t S = lookahead < 1 ? 1 : 2;
  const std::size_t client_shard = 0;
  const std::size_t server_shard = S - 1;

  // One registry per shard, installed before any instrumented component is
  // built so every Metrics::bind() resolves against it. The registries die
  // with this frame; RunResult carries a Snapshot of their merge instead.
  ShardedRun run(S, threads, lookahead);
  sim::ShardedEngine& engine = run.engine;
  sim::EventQueue& client_queue = engine.queue(client_shard);
  sim::EventQueue& server_queue = engine.queue(server_shard);
  sim::Rng rng(spec.seed);

  net::ChannelConfig channel_config = spec.network.channel_config();
  if (spec.mutate_channel) spec.mutate_channel(channel_config);
  apply_profile_overlay(spec.profile, channel_config, "access");
  // The links fork the channel rng in net::Channel's order (a_to_b, then
  // b_to_a), each on the shard of its transmitter.
  sim::Rng channel_rng = rng.fork();
  run.use(client_shard);
  net::Link a_to_b(client_queue, channel_config.a_to_b, channel_rng.fork());
  run.use(server_shard);
  net::Link b_to_a(server_queue, channel_config.b_to_a, channel_rng.fork());

  run.use(client_shard);
  tcp::Host client_host(client_queue, kClientAddr, "client", rng.fork());
  run.use(server_shard);
  tcp::Host server_host(server_queue, kServerAddr, "server", rng.fork());

  a_to_b.set_sink(&server_host);
  b_to_a.set_sink(&client_host);
  if (S > 1) {
    cross_deliver(engine, server_shard, a_to_b);
    cross_deliver(engine, client_shard, b_to_a);
  }
  client_host.attach_uplink(&a_to_b);
  server_host.attach_uplink(&b_to_a);
  if (spec.make_link_sizer) {
    a_to_b.set_payload_sizer(spec.make_link_sizer());
    b_to_a.set_payload_sizer(spec.make_link_sizer());
  }

  // Taps record into one stream per shard, each record keyed by the event
  // that produced it; after the run the streams merge back into the one
  // canonical order and replay into the PacketTrace.
  struct KeyedRecord {
    sim::EventKey key;
    sim::Time time = 0;
    net::Packet packet;
  };
  bool tracing = false;
  std::vector<KeyedRecord> taps[2];
  const auto tap_into = [&](std::size_t shard) {
    return [&, shard](const net::Packet& p) {
      if (!tracing) return;
      const sim::EventQueue& q = engine.queue(shard);
      taps[shard].push_back({q.current_key(), q.now(), p});
    };
  };
  a_to_b.set_tap(tap_into(client_shard));
  b_to_a.set_tap(tap_into(server_shard));

  server::HttpServer server(server_host,
                            server::StaticSite::from_microscape(site),
                            spec.server, rng.fork());
  server.start(kHttpPort);

  run.use(client_shard);
  client::ClientConfig client_config = spec.client;
  client_config.tcp.recv_buffer = std::min(client_config.tcp.recv_buffer,
                                           spec.network.client_recv_buffer);
  client::Robot robot(client_host, kServerAddr, kHttpPort, client_config);
  run.use(0);

  // Generous horizon: even PPP first visits finish within 120 s; the bound
  // only protects against pathological stalls.
  const auto run_to_completion = [&] { engine.run_until(sim::seconds(600)); };
  // The robot starts inside a client-shard event: it transmits the first
  // SYN, and a tap (or a crossing) keys its record by the executing event.
  const auto start_on_client_shard = [&](auto start) {
    client_queue.schedule_at(client_queue.now(), std::move(start));
  };

  if (spec.scenario == Scenario::kRevalidation) {
    // Unmeasured warm-up to populate the cache.
    bool warm_done = false;
    start_on_client_shard(
        [&] { robot.start_first_visit("/index.html", [&] { warm_done = true; }); });
    run_to_completion();
    if (!warm_done) {
      return RunResult{};  // warm-up stalled; surfaced as incomplete
    }
    // Let connections drain fully, then start measuring.
    engine.run_until(engine.now() + sim::seconds(120));
    client_host.reset_connection_counters();
  }

  tracing = true;
  if (spec.scenario == Scenario::kFirstVisit) {
    start_on_client_shard([&] { robot.start_first_visit("/index.html", [] {}); });
  } else {
    start_on_client_shard([&] { robot.start_revalidation("/index.html", [] {}); });
  }
  run_to_completion();
  // Allow connection teardown (FIN exchanges) to be captured.
  engine.run_until(engine.now() + sim::seconds(120));

  obs::Registry& registry = run.merge();
  net::PacketTrace trace(kClientAddr);  // trace.* binds the merged registry
  std::vector<KeyedRecord>& records = taps[0];
  const auto shard0_end = static_cast<std::ptrdiff_t>(records.size());
  records.insert(records.end(), std::make_move_iterator(taps[1].begin()),
                 std::make_move_iterator(taps[1].end()));
  std::inplace_merge(records.begin(), records.begin() + shard0_end,
                     records.end(),
                     [](const KeyedRecord& a, const KeyedRecord& b) {
                       return a.key < b.key;
                     });
  for (const KeyedRecord& r : records) trace.record(r.time, r.packet);

  if (spec.inspect_robot) spec.inspect_robot(robot);
  if (spec.inspect_trace) spec.inspect_trace(trace);
  if (spec.metrics_sink) spec.metrics_sink->consume(registry);

  RunResult result;
  // The summary is rebuilt from the trace.* registry counters rather than by
  // walking the records again — byte-identical by construction (both paths
  // are fed per-packet by PacketTrace::record and share fill_ratios()).
  result.trace = net::summary_from_metrics(registry);
  result.metrics = registry.snapshot();
  result.robot = robot.stats();
  result.server = server.stats();
  result.connections_used = client_host.total_connections_created();
  result.max_parallel_connections = client_host.max_simultaneous_connections();
  result.packet_trains = trace.packet_trains();
  result.mean_packet_train = trace.mean_packet_train_length();
  return result;
}

AveragedResult run_averaged(const ExperimentSpec& spec,
                            const content::MicroscapeSite& site,
                            unsigned runs) {
  AveragedResult avg;
  for (unsigned i = 0; i < runs; ++i) {
    ExperimentSpec s = spec;
    s.seed = spec.seed + i * 7919;
    const RunResult r = run_once(s, site);
    avg.packets += r.packets();
    avg.bytes += r.bytes();
    avg.seconds += r.seconds();
    avg.overhead_percent += r.overhead_percent();
    avg.packets_c2s += static_cast<double>(r.trace.packets_client_to_server);
    avg.packets_s2c += static_cast<double>(r.trace.packets_server_to_client);
    avg.connections += static_cast<double>(r.connections_used);
    avg.mean_packet_train += r.mean_packet_train;
    avg.all_complete = avg.all_complete && r.robot.complete;
  }
  const double n = static_cast<double>(runs);
  avg.packets /= n;
  avg.bytes /= n;
  avg.seconds /= n;
  avg.overhead_percent /= n;
  avg.packets_c2s /= n;
  avg.packets_s2c /= n;
  avg.connections /= n;
  avg.mean_packet_train /= n;
  return avg;
}

const content::MicroscapeSite& shared_site() {
  static const content::MicroscapeSite site = content::build_microscape();
  return site;
}

const content::MicroscapeSite& shared_modern_site(content::ModernCodec codec) {
  static const content::MicroscapeSite webp =
      content::modernize_site(shared_site(), content::ModernCodec::kWebP);
  static const content::MicroscapeSite avif =
      content::modernize_site(shared_site(), content::ModernCodec::kAvif);
  return codec == content::ModernCodec::kWebP ? webp : avif;
}

}  // namespace hsim::harness
