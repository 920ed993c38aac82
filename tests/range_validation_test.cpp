// End-to-end tests for "poor man's multiplexing" (paper §"Range Requests and
// Validation"): revalidation combining If-None-Match with a bounded Range so
// that changed objects return only a metadata prefix.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "server/static_site.hpp"

namespace hsim {
namespace {

struct Rig {
  explicit Rig(client::ClientConfig config,
               harness::NetworkProfile network = harness::wan_profile())
      : rng(11),
        channel(queue, network.channel_config(), rng.fork()),
        client_host(queue, 1, "client", rng.fork()),
        server_host(queue, 2, "server", rng.fork()),
        server(server_host,
               server::StaticSite::from_microscape(harness::shared_site()),
               server::apache_config(), rng.fork()),
        robot(client_host, 2, 80, std::move(config)) {
    channel.attach_a(&client_host);
    channel.attach_b(&server_host);
    client_host.attach_uplink(&channel.uplink_from_a());
    server_host.attach_uplink(&channel.uplink_from_b());
    server.start(80);
  }

  void first_visit() {
    bool done = false;
    robot.start_first_visit("/index.html", [&] { done = true; });
    queue.run_until(queue.now() + sim::seconds(300));
    ASSERT_TRUE(done);
  }

  void revalidate() {
    bool done = false;
    robot.start_revalidation("/index.html", [&] { done = true; });
    queue.run_until(queue.now() + sim::seconds(300));
    ASSERT_TRUE(done);
  }

  sim::EventQueue queue;
  sim::Rng rng;
  net::Channel channel;
  tcp::Host client_host;
  tcp::Host server_host;
  server::HttpServer server;
  client::Robot robot;
};

client::ClientConfig range_config() {
  client::ClientConfig c =
      harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
  c.validate_with_ranges = true;
  return c;
}

TEST(RangeValidationTest, UnchangedSiteStillGetsAll304s) {
  Rig rig(range_config());
  rig.first_visit();
  rig.revalidate();
  EXPECT_EQ(rig.robot.stats().responses_not_modified, 43u);
  EXPECT_EQ(rig.robot.stats().responses_partial, 0u);
}

TEST(RangeValidationTest, ChangedImageReturnsOnlyPrefix) {
  Rig rig(range_config());
  rig.first_visit();
  // Revise the big hero image (the largest resource on the page).
  std::string hero_path;
  std::size_t hero_size = 0;
  for (const auto& img : harness::shared_site().images) {
    if (img.gif_bytes.size() > hero_size) {
      hero_size = img.gif_bytes.size();
      hero_path = img.path;
    }
  }
  ASSERT_GT(hero_size, 20'000u);
  ASSERT_TRUE(rig.server.site().update(
      hero_path, std::vector<std::uint8_t>(hero_size, 0x77),
      http::kSimulationEpoch + 500));

  rig.revalidate();
  EXPECT_EQ(rig.robot.stats().responses_not_modified, 42u);
  EXPECT_EQ(rig.robot.stats().responses_partial, 1u);
  // Only the metadata prefix crossed the wire, not the ~30-40 KB image.
  EXPECT_EQ(rig.robot.stats().body_bytes, 1360u);
}

TEST(RangeValidationTest, WithoutRangesChangedImageMonopolizesConnection) {
  Rig plain(harness::robot_config(client::ProtocolMode::kHttp11Pipelined));
  plain.first_visit();
  std::string hero_path;
  std::size_t hero_size = 0;
  for (const auto& img : harness::shared_site().images) {
    if (img.gif_bytes.size() > hero_size) {
      hero_size = img.gif_bytes.size();
      hero_path = img.path;
    }
  }
  ASSERT_TRUE(plain.server.site().update(
      hero_path, std::vector<std::uint8_t>(hero_size, 0x77),
      http::kSimulationEpoch + 500));
  plain.revalidate();
  // The full new entity is transferred.
  EXPECT_EQ(plain.robot.stats().body_bytes, hero_size);
  EXPECT_EQ(plain.robot.stats().responses_ok, 1u);
  EXPECT_EQ(plain.robot.stats().responses_not_modified, 42u);
}

TEST(RangeValidationTest, RangeValidationFasterOnPpp) {
  // On the modem, a changed 30-40 KB image costs ~10 s of extra transfer
  // unless range validation bounds it.
  auto run = [&](bool with_ranges) {
    client::ClientConfig config =
        harness::robot_config(client::ProtocolMode::kHttp11Pipelined);
    config.validate_with_ranges = with_ranges;
    Rig rig(config, harness::ppp_profile());
    rig.first_visit();
    std::string hero_path;
    std::size_t hero_size = 0;
    for (const auto& img : harness::shared_site().images) {
      if (img.gif_bytes.size() > hero_size) {
        hero_size = img.gif_bytes.size();
        hero_path = img.path;
      }
    }
    rig.server.site().update(hero_path,
                             std::vector<std::uint8_t>(hero_size, 0x77),
                             http::kSimulationEpoch + 500);
    rig.revalidate();
    return rig.robot.stats().elapsed_seconds();
  };
  const double with_ranges = run(true);
  const double without = run(false);
  EXPECT_LT(with_ranges + 5.0, without);
}

TEST(RangeValidationTest, RootIsNeverRangeValidated) {
  // The HTML itself must arrive whole (it drives rendering and parsing).
  Rig rig(range_config());
  rig.first_visit();
  std::string new_html = harness::shared_site().html;
  new_html += "<!-- revised -->";
  rig.server.site().update("/index.html",
                           {new_html.begin(), new_html.end()},
                           http::kSimulationEpoch + 500);
  rig.revalidate();
  EXPECT_EQ(rig.robot.stats().responses_ok, 1u);  // full 200, not 206
  EXPECT_EQ(rig.robot.stats().responses_partial, 0u);
  EXPECT_EQ(rig.robot.stats().body_bytes, new_html.size());
}

}  // namespace
}  // namespace hsim
