// Failure-injection and reservation tests: random loss, link down/up,
// scripted FaultPlan outages, TCP resilience under loss, and token-bucket
// priority reservations protecting a flow from best-effort congestion.

#include <gtest/gtest.h>

#include "net/fault.hpp"
#include "net/network.hpp"
#include "net/reservation.hpp"
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

// --- reservations ------------------------------------------------------------

TEST(ReservationTest, ChannelAdmissionControl) {
  Env env(10e6);
  Channel& ch = env.net.channel(env.sw, env.b);
  const FlowKey f1{env.a, env.b, 1, 2, Protocol::kUdp};
  const FlowKey f2{env.c, env.b, 3, 4, Protocol::kUdp};
  EXPECT_TRUE(ch.add_reservation(f1, 6e6));
  EXPECT_FALSE(ch.add_reservation(f2, 5e6));  // 11 Mbps > 10 Mbps capacity
  EXPECT_TRUE(ch.add_reservation(f2, 4e6));
  EXPECT_DOUBLE_EQ(ch.reserved_bps(), 10e6);
  ch.remove_reservation(f1);
  EXPECT_DOUBLE_EQ(ch.reserved_bps(), 4e6);
}

TEST(ReservationTest, ReReservationReplacesRate) {
  Env env(10e6);
  Channel& ch = env.net.channel(env.sw, env.b);
  const FlowKey f{env.a, env.b, 1, 2, Protocol::kUdp};
  EXPECT_TRUE(ch.add_reservation(f, 6e6));
  EXPECT_TRUE(ch.add_reservation(f, 8e6));  // replaces, not adds
  EXPECT_DOUBLE_EQ(ch.reserved_bps(), 8e6);
}

TEST(ReservationTest, PathReservationAllOrNothing) {
  Env env(10e6);
  ReservationManager mgr(env.net);
  // Saturate the sw->b hop so the second path reservation must fail on it
  // and roll back the a->sw hop too.
  const FlowKey f1{env.a, env.b, 1, 2, Protocol::kUdp};
  const FlowKey f2{env.c, env.b, 3, 4, Protocol::kUdp};
  ASSERT_TRUE(mgr.reserve_path(f1, 8e6).has_value());
  EXPECT_FALSE(mgr.reserve_path(f2, 5e6).has_value());
  EXPECT_DOUBLE_EQ(env.net.channel(env.c, env.sw).reserved_bps(), 0.0);  // rolled back
  EXPECT_EQ(mgr.active(), 1u);
}

TEST(ReservationTest, ReleaseFreesAllHops) {
  Env env(10e6);
  ReservationManager mgr(env.net);
  const FlowKey f{env.a, env.b, 1, 2, Protocol::kUdp};
  const auto id = mgr.reserve_path(f, 8e6);
  ASSERT_TRUE(id.has_value());
  EXPECT_DOUBLE_EQ(mgr.reserved_on(env.a, env.sw), 8e6);
  EXPECT_DOUBLE_EQ(mgr.reserved_on(env.sw, env.b), 8e6);
  mgr.release(*id);
  EXPECT_EQ(mgr.active(), 0u);
  EXPECT_DOUBLE_EQ(env.net.channel(env.sw, env.b).reserved_bps(), 0.0);
  mgr.release(*id);  // idempotent
}

TEST(ReservationTest, ReservedFlowProtectedFromCongestion) {
  // A 4 Mbps CBR flow with a 4 Mbps reservation keeps its rate while an
  // unreserved 9 Mbps flow floods the shared 10 Mbps bottleneck; without
  // the reservation it loses heavily.
  auto run_case = [](bool reserved) {
    Env env(10e6);
    ReservationManager mgr(env.net);
    transport::CbrUdpSource victim(*env.stack, env.a, env.b, 7000, 4e6, 1000);
    transport::CbrUdpSource flood(*env.stack, env.c, env.b, 7001, 9e6, 1000);
    if (reserved) {
      // The victim's UDP flow key: CbrUdpSource binds an ephemeral source
      // port; reserve by wildcarding through the actual first packet is
      // overkill here — reserve with the known 5-tuple.
      const FlowKey f{env.a, env.b, 49152, 7000, Protocol::kUdp};
      EXPECT_TRUE(mgr.reserve_path(f, 4.5e6).has_value());
    }
    victim.start();
    flood.start();
    std::uint64_t victim_bytes = 0;
    env.net.set_host_stack(env.b, [&](Packet&& p) {
      if (p.flow.src == env.a) victim_bytes += p.payload_bytes;
    });
    env.sim.run_until(seconds(10.0));
    return static_cast<double>(victim_bytes) * 8.0 / 10.0;
  };

  const double with_reservation = run_case(true);
  const double without = run_case(false);
  EXPECT_GT(with_reservation, 3.8e6);  // essentially full rate
  EXPECT_LT(without, 3.5e6);           // squeezed by the flood
}

TEST(ReservationTest, TokenBucketDowngradesExcessTraffic) {
  // A flow reserved at 2 Mb/s but sending 8 Mb/s: only ~2 Mb/s rides the
  // priority class; the excess is classified best effort.
  Env env(10e6);
  Channel& ch = env.net.channel(env.a, env.sw);
  const FlowKey f{env.a, env.b, 49152, 7000, Protocol::kUdp};
  ASSERT_TRUE(ch.add_reservation(f, 2e6, /*burst_bytes=*/4000));
  transport::CbrUdpSource src(*env.stack, env.a, env.b, 7000, 8e6, 1000);
  src.start();
  env.sim.run_until(seconds(10.0));
  const auto& stats = ch.stats();
  const double prio_fraction =
      static_cast<double>(stats.priority_packets) / static_cast<double>(stats.packets_sent);
  // ~2 of 8 Mb/s conforms -> about 25% priority.
  EXPECT_NEAR(prio_fraction, 0.25, 0.08);
}

TEST(ReservationTest, UnroutablePathRejected) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");  // disconnected
  net.compute_routes();
  ReservationManager mgr(net);
  EXPECT_FALSE(mgr.reserve_path(FlowKey{a, b, 1, 2, Protocol::kUdp}, 1e6).has_value());
}

TEST(ReservationTest, PriorityPacketsCounted) {
  Env env(10e6);
  Channel& ch = env.net.channel(env.a, env.sw);
  const FlowKey f{env.a, env.b, 1, 2, Protocol::kUdp};
  ASSERT_TRUE(ch.add_reservation(f, 5e6));
  env.net.send(env.udp_packet(1000));
  env.sim.run();
  EXPECT_EQ(ch.stats().priority_packets, 1u);
}

}  // namespace
}  // namespace vw::net
