// Failure-injection tests: random loss, link down/up, scripted FaultPlan
// outages and TCP resilience under loss.

#include <gtest/gtest.h>

#include "net/fault.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "transport/sources.hpp"
#include "transport/stack.hpp"

namespace vw::net {
namespace {

struct Env {
  sim::Simulator sim;
  Network net{sim};
  NodeId a, b, c, sw;
  std::unique_ptr<transport::TransportStack> stack;
  RngService rngs{777};

  explicit Env(double bps = 10e6) {
    a = net.add_host("a");
    b = net.add_host("b");
    c = net.add_host("c");
    sw = net.add_router("sw");
    LinkConfig cfg;
    cfg.bits_per_sec = bps;
    cfg.prop_delay = millis(1);
    net.add_link(a, sw, cfg);
    net.add_link(c, sw, cfg);
    net.add_link(sw, b, cfg);
    net.compute_routes();
    stack = std::make_unique<transport::TransportStack>(net);
  }

  Packet udp_packet(std::uint32_t bytes = 1000) {
    Packet p;
    p.flow = FlowKey{a, b, 1, 2, Protocol::kUdp};
    p.payload_bytes = bytes;
    return p;
  }
};

TEST(LossInjectionTest, DropsApproximatelyConfiguredFraction) {
  Env env;
  env.net.set_link_loss(env.sw, env.b, 0.3, env.rngs);
  int delivered = 0;
  env.net.set_host_stack(env.b, [&](Packet&&) { ++delivered; });
  for (int i = 0; i < 2000; ++i) {
    env.sim.schedule_at(i * micros(900), [&] { env.net.send(env.udp_packet(100)); });
  }
  env.sim.run();
  EXPECT_NEAR(delivered, 1400, 80);  // 70% of 2000
  EXPECT_NEAR(static_cast<double>(env.net.channel(env.sw, env.b).stats().packets_lost), 600, 80);
}

TEST(LossInjectionTest, ZeroLossDeliversEverything) {
  Env env;
  env.net.set_link_loss(env.sw, env.b, 0.0, env.rngs);
  int delivered = 0;
  env.net.set_host_stack(env.b, [&](Packet&&) { ++delivered; });
  for (int i = 0; i < 100; ++i) {
    env.sim.schedule_at(i * millis(1), [&] { env.net.send(env.udp_packet(100)); });
  }
  env.sim.run();
  EXPECT_EQ(delivered, 100);
}

TEST(LossInjectionTest, InvalidProbabilityThrows) {
  Env env;
  EXPECT_THROW(env.net.channel(env.a, env.sw).set_loss(1.5, env.rngs.stream("x")),
               std::invalid_argument);
}

TEST(LinkDownTest, DownLinkDropsEverything) {
  Env env;
  env.net.set_link_down(env.sw, env.b, true);
  int delivered = 0;
  env.net.set_host_stack(env.b, [&](Packet&&) { ++delivered; });
  for (int i = 0; i < 10; ++i) env.net.send(env.udp_packet(100));
  env.sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(env.net.channel(env.sw, env.b).stats().packets_down_dropped, 10u);
}

TEST(LinkDownTest, RecoversAfterUp) {
  Env env;
  int delivered = 0;
  env.net.set_host_stack(env.b, [&](Packet&&) { ++delivered; });
  env.net.set_link_down(env.sw, env.b, true);
  env.net.send(env.udp_packet(100));
  env.sim.run();
  EXPECT_EQ(delivered, 0);
  env.net.set_link_down(env.sw, env.b, false);
  env.net.send(env.udp_packet(100));
  env.sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(LinkDownTest, TcpSurvivesTransientOutage) {
  Env env;
  transport::TcpConnection* server = nullptr;
  env.stack->tcp_listen(env.b, 80, [&](transport::TcpConnection& conn) { server = &conn; });
  auto& client = env.stack->tcp_connect(env.a, env.b, 80);
  client.send(1'000'000);
  env.sim.run_until(seconds(0.3));
  // 2-second outage mid-transfer.
  env.net.set_link_down(env.sw, env.b, true);
  env.sim.run_until(seconds(2.3));
  env.net.set_link_down(env.sw, env.b, false);
  env.sim.run_until(seconds(30.0));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->bytes_received(), 1'000'000u);  // RTO recovery resumed it
  EXPECT_GT(client.retransmissions(), 0u);
}

TEST(FaultPlanTest, UdpDroppedInsideOutageDeliveredAfter) {
  Env env;
  FaultPlan faults(env.sim, env.net);
  // Scheduled before the traffic, so at equal timestamps the fault fires
  // first: a packet sent at `from` meets a down link, one sent at `until`
  // an up one. The outage is on a's access link, where a send enqueues.
  faults.link_outage(millis(10), millis(20), env.a, env.sw);
  std::vector<SimTime> delivered;
  env.net.set_host_stack(env.b, [&](Packet&& p) { delivered.push_back(p.send_time); });
  for (SimTime t : {millis(5), millis(10), millis(15), millis(20), millis(25)}) {
    env.sim.schedule_at(t, [&] { env.net.send(env.udp_packet(100)); });
  }
  env.sim.run();
  EXPECT_EQ(delivered, (std::vector<SimTime>{millis(5), millis(20), millis(25)}));
  EXPECT_EQ(env.net.channel(env.a, env.sw).stats().packets_down_dropped, 2u);
  EXPECT_FALSE(env.net.channel(env.a, env.sw).is_down());
  EXPECT_FALSE(env.net.channel(env.sw, env.a).is_down());
}

TEST(FaultPlanTest, SchedulingInThePastThrows) {
  Env env;
  FaultPlan faults(env.sim, env.net);
  env.sim.run_until(millis(10));
  EXPECT_THROW(faults.link_outage(millis(5), millis(20), env.a, env.sw), std::invalid_argument);
  EXPECT_THROW(faults.link_up(millis(9), env.a, env.sw), std::invalid_argument);
  EXPECT_NO_THROW(faults.link_down(millis(10), env.a, env.sw));
}

TEST(FaultPlanTest, OutageMustEndAfterItStarts) {
  Env env;
  FaultPlan faults(env.sim, env.net);
  EXPECT_THROW(faults.link_outage(millis(10), millis(10), env.a, env.sw),
               std::invalid_argument);
  EXPECT_THROW(faults.link_outage(millis(10), millis(5), env.a, env.sw), std::invalid_argument);
  env.sim.run();
  EXPECT_FALSE(env.net.channel(env.a, env.sw).is_down());
}

// Property sweep: TCP completes a transfer under any moderate random loss.
class TcpLossSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(TcpLossSweepTest, TransferCompletesUnderLoss) {
  const double loss = GetParam();
  Env env(20e6);
  env.net.set_link_loss(env.sw, env.b, loss, env.rngs);
  transport::TcpConnection* server = nullptr;
  env.stack->tcp_listen(env.b, 80, [&](transport::TcpConnection& conn) { server = &conn; });
  auto& client = env.stack->tcp_connect(env.a, env.b, 80);
  client.send(500'000);
  env.sim.run_until(seconds(120.0));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->bytes_received(), 500'000u) << "loss " << loss;
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossSweepTest, ::testing::Values(0.001, 0.01, 0.05));

}  // namespace
}  // namespace vw::net
