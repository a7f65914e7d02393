// Tests for the transport layer: TCP handshake, window growth, throughput,
// loss recovery, message boundaries; UDP datagrams; traffic generators.

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "transport/meter.hpp"
#include "transport/sources.hpp"
#include "transport/stack.hpp"
#include "transport/tcp.hpp"
#include "transport/udp.hpp"

namespace vw::transport {
namespace {

struct Env {
  sim::Simulator sim;
  net::Network net{sim};
  net::NodeId a, b;
  std::unique_ptr<TransportStack> stack;

  explicit Env(double bps = 100e6, SimTime delay = micros(100),
               std::int64_t queue = 256 * 1024) {
    a = net.add_host("a");
    b = net.add_host("b");
    net::LinkConfig cfg;
    cfg.bits_per_sec = bps;
    cfg.prop_delay = delay;
    cfg.queue_limit_bytes = queue;
    net.add_link(a, b, cfg);
    net.compute_routes();
    stack = std::make_unique<TransportStack>(net);
  }
};

TEST(TcpTest, HandshakeEstablishesBothEnds) {
  Env env;
  TcpConnection* server = nullptr;
  env.stack->tcp_listen(env.b, 80, [&](TcpConnection& c) { server = &c; });
  TcpConnection& client = env.stack->tcp_connect(env.a, env.b, 80);
  EXPECT_FALSE(client.established());
  env.sim.run();
  ASSERT_NE(server, nullptr);
  EXPECT_TRUE(client.established());
  EXPECT_TRUE(server->established());
}

TEST(TcpTest, EstablishedCallbackFires) {
  Env env;
  env.stack->tcp_listen(env.b, 80, [](TcpConnection&) {});
  TcpConnection& client = env.stack->tcp_connect(env.a, env.b, 80);
  bool called = false;
  client.set_on_established([&] { called = true; });
  env.sim.run();
  EXPECT_TRUE(called);
}

TEST(TcpTest, ConnectToClosedPortNeverEstablishes) {
  Env env;
  TcpConnection& client = env.stack->tcp_connect(env.a, env.b, 81);
  env.sim.run();
  EXPECT_FALSE(client.established());
  EXPECT_EQ(client.state(), TcpConnection::State::kClosed);  // SYN retries exhausted
}

TEST(TcpTest, TransfersAllBytes) {
  Env env;
  TcpConnection* server = nullptr;
  env.stack->tcp_listen(env.b, 80, [&](TcpConnection& c) { server = &c; });
  TcpConnection& client = env.stack->tcp_connect(env.a, env.b, 80);
  client.send(1'000'000);
  env.sim.run();
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->bytes_received(), 1'000'000u);
  EXPECT_EQ(client.bytes_acked(), 1'000'000u);
}

TEST(TcpTest, MessageBoundariesPreserved) {
  Env env;
  std::vector<std::uint64_t> sizes;
  std::vector<int> tags;
  env.stack->tcp_listen(env.b, 80, [&](TcpConnection& c) {
    c.set_on_message([&](std::uint64_t bytes, const std::any& tag) {
      sizes.push_back(bytes);
      if (const int* t = std::any_cast<int>(&tag)) tags.push_back(*t);
    });
  });
  TcpConnection& client = env.stack->tcp_connect(env.a, env.b, 80);
  client.send(2000, 1);
  client.send(50'000, 2);
  client.send(300, 3);
  env.sim.run();
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{2000, 50'000, 300}));
  EXPECT_EQ(tags, (std::vector<int>{1, 2, 3}));
}

TEST(TcpTest, ThroughputApproachesCapacity) {
  Env env(10e6, millis(5));
  TcpConnection* server = nullptr;
  env.stack->tcp_listen(env.b, 80, [&](TcpConnection& c) { server = &c; });
  TcpConnection& client = env.stack->tcp_connect(env.a, env.b, 80);
  client.send(8'000'000);  // 64 Mbit: ~7s at 10 Mbps
  env.sim.run_until(seconds(15.0));
  ASSERT_NE(server, nullptr);
  ASSERT_EQ(server->bytes_received(), 8'000'000u);
  // Completion time within [100%, 143%] of the ideal 6.4 s (headers + slow
  // start + recovery overhead).
  SimTime done_at = -1;
  // bytes_received updates monotonically; find completion by re-running a
  // fresh transfer with a completion callback.
  Env env2(10e6, millis(5));
  TcpConnection* server2 = nullptr;
  env2.stack->tcp_listen(env2.b, 80, [&](TcpConnection& c) {
    server2 = &c;
    c.set_on_delivered([&](std::uint64_t total) {
      if (total >= 8'000'000u && done_at < 0) done_at = env2.sim.now();
    });
  });
  env2.stack->tcp_connect(env2.a, env2.b, 80).send(8'000'000);
  env2.sim.run_until(seconds(15.0));
  ASSERT_GT(done_at, 0);
  const double tput = 8'000'000.0 * 8.0 / to_seconds(done_at);
  EXPECT_GT(tput, 0.70 * 10e6);
  EXPECT_LT(tput, 10e6);
}

TEST(TcpTest, SlowStartGrowsWindowExponentially) {
  Env env(100e6, millis(10));
  env.stack->tcp_listen(env.b, 80, [](TcpConnection&) {});
  TcpConnection& client = env.stack->tcp_connect(env.a, env.b, 80);
  client.send(10'000'000);
  const double initial_cwnd = client.cwnd();
  // After a few RTTs of slow start the window should have grown manyfold.
  env.sim.run_until(seconds(0.2));
  EXPECT_GT(client.cwnd(), 4 * initial_cwnd);
}

TEST(TcpTest, RecoversFromLossViaQueueOverflow) {
  // Tiny queue forces drops during slow start; the transfer must still finish.
  Env env(10e6, millis(5), 8 * 1024);
  TcpConnection* server = nullptr;
  env.stack->tcp_listen(env.b, 80, [&](TcpConnection& c) { server = &c; });
  TcpConnection& client = env.stack->tcp_connect(env.a, env.b, 80);
  client.send(2'000'000);
  env.sim.run_until(seconds(30.0));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->bytes_received(), 2'000'000u);
  EXPECT_GT(client.retransmissions(), 0u);
}

TEST(TcpTest, SrttTracksPathRtt) {
  Env env(100e6, millis(20));
  env.stack->tcp_listen(env.b, 80, [](TcpConnection&) {});
  TcpConnection& client = env.stack->tcp_connect(env.a, env.b, 80);
  client.send(100'000);
  env.sim.run();
  // Path RTT is ~40ms propagation plus serialization.
  EXPECT_GT(client.srtt(), millis(39));
  EXPECT_LT(client.srtt(), millis(60));
}

TEST(TcpTest, TwoConnectionsShareFairly) {
  Env env(10e6, millis(5));
  TcpConnection* s1 = nullptr;
  TcpConnection* s2 = nullptr;
  env.stack->tcp_listen(env.b, 80, [&](TcpConnection& c) { s1 = &c; });
  env.stack->tcp_listen(env.b, 81, [&](TcpConnection& c) { s2 = &c; });
  TcpConnection& c1 = env.stack->tcp_connect(env.a, env.b, 80);
  TcpConnection& c2 = env.stack->tcp_connect(env.a, env.b, 81);
  c1.send(20'000'000);
  c2.send(20'000'000);
  env.sim.run_until(seconds(10.0));
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  const double r1 = static_cast<double>(s1->bytes_received());
  const double r2 = static_cast<double>(s2->bytes_received());
  EXPECT_GT(r1, 0);
  EXPECT_GT(r2, 0);
  // Jain-fairness-ish: neither flow starves (at least 25% of the other).
  EXPECT_GT(std::min(r1, r2) / std::max(r1, r2), 0.25);
}

TEST(TcpTest, FullDuplexDataBothDirections) {
  // Both endpoints send simultaneously; each side's stream must arrive
  // completely and independently.
  Env env(50e6, millis(2));
  TcpConnection* server = nullptr;
  env.stack->tcp_listen(env.b, 80, [&](TcpConnection& c) {
    server = &c;
    c.send(300'000);  // server -> client stream
  });
  TcpConnection& client = env.stack->tcp_connect(env.a, env.b, 80);
  client.send(500'000);  // client -> server stream
  env.sim.run_until(seconds(10.0));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->bytes_received(), 500'000u);
  EXPECT_EQ(client.bytes_received(), 300'000u);
}

TEST(TcpTest, ManySmallMessagesKeepOrderAndTags) {
  Env env;
  std::vector<int> tags;
  env.stack->tcp_listen(env.b, 80, [&](TcpConnection& c) {
    c.set_on_message([&](std::uint64_t, const std::any& tag) {
      if (const int* t = std::any_cast<int>(&tag)) tags.push_back(*t);
    });
  });
  TcpConnection& client = env.stack->tcp_connect(env.a, env.b, 80);
  for (int i = 0; i < 200; ++i) client.send(100 + i, i);
  env.sim.run();
  ASSERT_EQ(tags.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(tags[static_cast<std::size_t>(i)], i);
}

TEST(TcpTest, CloseStopsTraffic) {
  Env env;
  env.stack->tcp_listen(env.b, 80, [](TcpConnection&) {});
  TcpConnection& client = env.stack->tcp_connect(env.a, env.b, 80);
  env.sim.run();
  client.send(1'000'000);
  client.close();
  env.sim.run();
  EXPECT_EQ(client.state(), TcpConnection::State::kClosed);
}

// Property sweep: bulk TCP must complete and achieve reasonable utilization
// across capacities and RTTs (BDP from ~2 KB to ~1.2 MB).
struct PathCase {
  double bps;
  SimTime delay;
};

class TcpPathSweepTest : public ::testing::TestWithParam<PathCase> {};

TEST_P(TcpPathSweepTest, BulkTransferUtilizesPath) {
  const PathCase pc = GetParam();
  Env env(pc.bps, pc.delay);
  // Size the transfer for ~4 seconds at line rate.
  const auto bytes = static_cast<std::uint64_t>(pc.bps * 4.0 / 8.0);
  TcpConnection* server = nullptr;
  SimTime done_at = -1;
  env.stack->tcp_listen(env.b, 80, [&](TcpConnection& c) {
    server = &c;
    c.set_on_delivered([&](std::uint64_t total) {
      if (total >= bytes && done_at < 0) done_at = env.sim.now();
    });
  });
  TcpConnection& client = env.stack->tcp_connect(env.a, env.b, 80);
  client.send(bytes);
  env.sim.run_until(seconds(60.0));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->bytes_received(), bytes);
  ASSERT_GT(done_at, 0);
  // Utilization: finished within 3x the ideal time (rwnd can cap long-fat
  // paths; 256 KB / 100 ms = ~21 Mb/s is the floor for the worst case here).
  const double ideal_s = static_cast<double>(bytes) * 8.0 / pc.bps;
  const double rwnd_s =
      static_cast<double>(bytes) / (256.0 * 1024.0) * 2.0 * to_seconds(pc.delay);
  EXPECT_LT(to_seconds(done_at), 3.0 * std::max(ideal_s, rwnd_s) + 5.0);
}

INSTANTIATE_TEST_SUITE_P(Paths, TcpPathSweepTest,
                         ::testing::Values(PathCase{1e6, millis(10)},
                                           PathCase{10e6, millis(1)},
                                           PathCase{100e6, millis(50)},
                                           PathCase{1e9, micros(100)}));

// --- UDP ---------------------------------------------------------------------

TEST(UdpTest, DatagramDelivery) {
  Env env;
  auto rx = env.stack->udp_bind(env.b, 5000);
  auto tx = env.stack->udp_bind(env.a, 5001);
  std::uint32_t got_bytes = 0;
  rx->set_on_receive([&](const net::Packet& p) { got_bytes = p.payload_bytes; });
  tx->send_to(env.b, 5000, 999);
  env.sim.run();
  EXPECT_EQ(got_bytes, 999u);
  EXPECT_EQ(tx->datagrams_sent(), 1u);
  EXPECT_EQ(rx->datagrams_received(), 1u);
}

TEST(UdpTest, UserDataRidesAlong) {
  Env env;
  auto rx = env.stack->udp_bind(env.b, 5000);
  auto tx = env.stack->udp_bind(env.a, 5001);
  std::string got;
  rx->set_on_receive([&](const net::Packet& p) {
    if (p.user_data) got = std::any_cast<std::string>(*p.user_data);
  });
  tx->send_to(env.b, 5000, 10, std::make_shared<std::any>(std::string("hello")));
  env.sim.run();
  EXPECT_EQ(got, "hello");
}

TEST(UdpTest, UnboundPortDrops) {
  Env env;
  auto tx = env.stack->udp_bind(env.a, 5001);
  tx->send_to(env.b, 4999, 100);
  env.sim.run();  // must not crash
  SUCCEED();
}

TEST(UdpTest, DoubleBindThrows) {
  Env env;
  auto s1 = env.stack->udp_bind(env.a, 6000);
  EXPECT_THROW(env.stack->udp_bind(env.a, 6000), std::invalid_argument);
}

// --- meters ---------------------------------------------------------------------

TEST(RateMeterTest, SeriesBuckets) {
  RateMeter m;
  m.add(millis(100), 1250);   // bucket 0
  m.add(millis(900), 1250);   // bucket 0
  m.add(millis(1500), 2500);  // bucket 1
  const auto series = m.series(seconds(1.0));
  ASSERT_EQ(series.size(), 2u);
  EXPECT_NEAR(series[0].bps, 20'000, 1);  // 2500B*8/1s
  EXPECT_NEAR(series[1].bps, 20'000, 1);
  EXPECT_EQ(m.total_bytes(), 5000u);
}

TEST(RateMeterTest, AverageWindow) {
  RateMeter m;
  m.add(seconds(1.0), 1000);
  m.add(seconds(2.0), 1000);
  m.add(seconds(3.0), 1000);
  EXPECT_NEAR(m.average_bps(seconds(0.5), seconds(2.5)), 2000 * 8 / 2.0, 1);
}

TEST(RateMeterTest, BackwardsTimeThrows) {
  RateMeter m;
  m.add(seconds(2.0), 10);
  EXPECT_THROW(m.add(seconds(1.0), 10), std::invalid_argument);
}

// --- generators ---------------------------------------------------------------

TEST(CbrTest, HoldsConfiguredRate) {
  Env env;
  CbrUdpSource cbr(*env.stack, env.a, env.b, 7000, 5e6, 1000);
  cbr.start();
  env.sim.run_until(seconds(2.0));
  cbr.stop();
  // 5 Mbps for 2s = 10 Mbit = 1250 datagrams of 1000B.
  EXPECT_NEAR(static_cast<double>(cbr.datagrams_sent()), 1250.0, 13.0);
}

TEST(CbrTest, RateChangeTakesEffect) {
  Env env;
  CbrUdpSource cbr(*env.stack, env.a, env.b, 7000, 5e6, 1000);
  cbr.start();
  env.sim.run_until(seconds(1.0));
  const auto at_1s = cbr.datagrams_sent();
  cbr.set_rate_bps(10e6);
  env.sim.run_until(seconds(2.0));
  const auto second_leg = cbr.datagrams_sent() - at_1s;
  EXPECT_NEAR(static_cast<double>(second_leg), 2.0 * static_cast<double>(at_1s), 30.0);
}

TEST(CbrTest, ZeroRatePausesUntilRestored) {
  Env env;
  CbrUdpSource cbr(*env.stack, env.a, env.b, 7000, 5e6, 1000);
  cbr.start();
  env.sim.run_until(seconds(0.5));
  cbr.set_rate_bps(0);
  const auto paused_at = cbr.datagrams_sent();
  env.sim.run_until(seconds(1.5));
  EXPECT_EQ(cbr.datagrams_sent(), paused_at);
  cbr.set_rate_bps(5e6);
  env.sim.run_until(seconds(2.0));
  EXPECT_GT(cbr.datagrams_sent(), paused_at);
}

TEST(MessageSourceTest, SendsScriptedPhases) {
  Env env;
  std::vector<MessagePhase> phases{
      {.count = 5, .message_bytes = 2000, .spacing = millis(100), .pause_after = seconds(1.0)},
      {.count = 3, .message_bytes = 50'000, .spacing = millis(100), .pause_after = 0},
  };
  MessageSource src(*env.stack, env.a, env.b, 9000, phases, /*repeat=*/2);
  src.start();
  env.sim.run_until(seconds(20.0));
  EXPECT_TRUE(src.finished());
  EXPECT_EQ(src.messages_sent(), 16u);  // (5+3) x 2
  EXPECT_EQ(src.sink().messages_received(), 16u);
  EXPECT_EQ(src.sink().bytes_received(), 2u * (5u * 2000u + 3u * 50'000u));
}

TEST(OnOffTest, AlternatesBetweenSilenceAndBursts) {
  Env env(10e6, millis(2));
  OnOffTcpSource onoff(*env.stack, env.a, env.b, 9100, 4e6, seconds(0.5), seconds(0.5), Rng(99));
  onoff.start();
  env.sim.run_until(seconds(20.0));
  onoff.stop();
  const double achieved =
      static_cast<double>(onoff.sink().bytes_received()) * 8.0 / 20.0;
  // ~50% duty cycle at 4 Mbps peak: expect roughly 2 Mbps +/- generous slack.
  EXPECT_GT(achieved, 0.8e6);
  EXPECT_LT(achieved, 3.5e6);
}

TEST(BulkTest, SaturatesLink) {
  Env env(10e6, millis(5));
  BulkTcpSource bulk(*env.stack, env.a, env.b, 9200);
  bulk.start();
  env.sim.run_until(seconds(10.0));
  bulk.stop();
  const double tput = bulk.throughput_bps(seconds(2.0), seconds(10.0));
  EXPECT_GT(tput, 0.8 * 10e6);
  EXPECT_LT(tput, 10e6);
}

// --- generator lifetime ---------------------------------------------------------

// Destroy a running generator at 1 s and run on to 3 s: no event or
// connection callback may still point at it, and once the wire drains
// nothing of it is left scheduled.
template <class Source>
void expect_clean_destruction(Env& env, std::unique_ptr<Source> source) {
  source->start();
  env.sim.run_until(seconds(1.0));
  ASSERT_GT(source->sink().bytes_received(), 0u);
  // A stopped bulk source still has a megabyte buffered toward its sink.
  if constexpr (std::is_same_v<Source, BulkTcpSource>) source->stop();
  source.reset();
  env.sim.run_until(seconds(3.0));
  EXPECT_FALSE(env.sim.has_pending());
}

TEST(SourceLifetimeTest, MessageSourceDestroyedMidRun) {
  Env env;
  const std::vector<MessagePhase> phases{
      {.count = 100, .message_bytes = 50'000, .spacing = millis(100)}};
  expect_clean_destruction(
      env, std::make_unique<MessageSource>(*env.stack, env.a, env.b, 9000, phases));
}

TEST(SourceLifetimeTest, OnOffSourceDestroyedMidRun) {
  Env env(10e6, millis(2));
  expect_clean_destruction(env, std::make_unique<OnOffTcpSource>(*env.stack, env.a, env.b, 9100,
                                                                 4e6, seconds(0.5), seconds(0.5),
                                                                 Rng(99)));
}

TEST(SourceLifetimeTest, StoppedBulkSourceDestroyedMidRun) {
  Env env(10e6, millis(5));
  expect_clean_destruction(env, std::make_unique<BulkTcpSource>(*env.stack, env.a, env.b, 9200));
}

}  // namespace
}  // namespace vw::transport
