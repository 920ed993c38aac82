// Extension experiment: "poor man's multiplexing" (paper §"Range Requests
// and Validation"). A revalidation visit after the site's largest image
// changed: plain conditional GETs re-transfer the whole new image, while
// If-None-Match + Range: bytes=0-N retrieves only its metadata prefix.
#include <cstdio>

#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
#include "server/static_site.hpp"

namespace {

using namespace hsim;

struct Outcome {
  double seconds = 0;
  double body_bytes = 0;
  double packets = 0;
};

Outcome run(bool with_ranges, const harness::NetworkProfile& network) {
  // Packets come out of the metrics registry (trace.*), page time and body
  // bytes out of the robot's own stats, same as the harness-driven table
  // benches.
  obs::Registry registry;
  obs::ScopedRegistry scoped(&registry);

  const content::MicroscapeSite& site = harness::shared_site();
  sim::EventQueue queue;
  sim::Rng rng(17);
  net::Channel channel(queue, network.channel_config(), rng.fork());
  tcp::Host client_host(queue, 1, "client", rng.fork());
  tcp::Host server_host(queue, 2, "server", rng.fork());
  channel.attach_a(&client_host);
  channel.attach_b(&server_host);
  client_host.attach_uplink(&channel.uplink_from_a());
  server_host.attach_uplink(&channel.uplink_from_b());
  net::PacketTrace trace(1);

  server::HttpServer server(server_host,
                            server::StaticSite::from_microscape(site),
                            server::apache_config(), rng.fork());
  server.start(80);
  client::ClientConfig config =
      harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  config.validate_with_ranges = with_ranges;
  config.tcp.recv_buffer =
      std::min(config.tcp.recv_buffer, network.client_recv_buffer);
  client::Robot robot(client_host, 2, 80, config);

  bool done = false;
  robot.start_first_visit("/index.html", [&] { done = true; });
  queue.run_until(sim::seconds(600));

  // Revise the hero image before revalidating.
  std::string hero;
  std::size_t hero_size = 0;
  for (const auto& img : site.images) {
    if (img.gif_bytes.size() > hero_size) {
      hero_size = img.gif_bytes.size();
      hero = img.path;
    }
  }
  server.site().update(hero, std::vector<std::uint8_t>(hero_size, 0x5A),
                       http::kSimulationEpoch + 100);

  channel.set_trace(&trace);
  done = false;
  robot.start_revalidation("/index.html", [&] { done = true; });
  queue.run_until(queue.now() + sim::seconds(600));

  Outcome o;
  o.seconds = robot.stats().elapsed_seconds();
  o.body_bytes = static_cast<double>(robot.stats().body_bytes);
  o.packets = static_cast<double>(registry.counter_value("trace.packets"));
  return o;
}

}  // namespace

int main() {
  using namespace hsim;
  std::printf("=== Range validation (\"poor man's multiplexing\"): "
              "revalidation after the ~40 KB hero image changed ===\n\n");
  std::printf("%-8s %-22s %8s %10s %8s\n", "Network", "Validation", "Sec",
              "BodyBytes", "Pa");
  for (const auto& network : {harness::wan_profile(), harness::ppp_profile()}) {
    for (const bool ranges : {false, true}) {
      const Outcome o = run(ranges, network);
      std::printf("%-8.*s %-22s %8.2f %10.0f %8.0f\n", 3, network.name.c_str(),
                  ranges ? "If-None-Match + Range" : "If-None-Match only",
                  o.seconds, o.body_bytes, o.packets);
    }
  }
  std::printf(
      "\nThe bounded Range keeps a changed large object from monopolizing\n"
      "the single HTTP/1.1 connection: the client gets the new metadata\n"
      "immediately and can schedule the full fetch on its own terms.\n");
  return 0;
}
