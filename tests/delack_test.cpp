// Delayed-ACK tests: RFC 1122 behaviour of the receiver, its interaction
// with loss feedback, and Wren's measurement accuracy with a delayed-ACK
// receiver (the feedback stream it mines is half as dense).

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "topo/lan_measurement.hpp"
#include "transport/stack.hpp"
#include "transport/tcp.hpp"

namespace vw::transport {
namespace {

struct Env {
  sim::Simulator sim;
  net::Network net{sim};
  net::NodeId a, b;
  std::unique_ptr<TransportStack> stack;

  explicit Env(bool delayed_ack, double bps = 100e6, SimTime delay = millis(1)) {
    a = net.add_host("a");
    b = net.add_host("b");
    net::LinkConfig cfg;
    cfg.bits_per_sec = bps;
    cfg.prop_delay = delay;
    net.add_link(a, b, cfg);
    net.compute_routes();
    stack = std::make_unique<TransportStack>(net);
    stack->set_delayed_ack(delayed_ack);
  }

  /// Count pure ACKs arriving at host a (the sender side).
  std::uint64_t count_acks_during_transfer(std::uint64_t bytes) {
    std::uint64_t acks = 0;
    net.add_host_tap(a, [&](const net::TapEvent& ev) {
      if (ev.direction == net::TapDirection::kIncoming && ev.packet->is_ack &&
          ev.packet->payload_bytes == 0) {
        ++acks;
      }
    });
    TcpConnection* server = nullptr;
    stack->tcp_listen(b, 80, [&](TcpConnection& c) { server = &c; });
    stack->tcp_connect(a, b, 80).send(bytes);
    sim.run_until(seconds(30.0));
    EXPECT_NE(server, nullptr);
    if (server != nullptr) {
      EXPECT_EQ(server->bytes_received(), bytes);
    }
    return acks;
  }
};

TEST(DelayedAckTest, HalvesAckCount) {
  const std::uint64_t bytes = 500'000;  // ~343 segments
  Env immediate(false);
  Env delayed(true);
  const auto acks_immediate = immediate.count_acks_during_transfer(bytes);
  const auto acks_delayed = delayed.count_acks_during_transfer(bytes);
  EXPECT_GT(acks_immediate, 300u);
  // Delayed ACKs: roughly one per two segments (plus handshake/timeout acks).
  EXPECT_LT(acks_delayed, acks_immediate * 2 / 3);
  EXPECT_GT(acks_delayed, acks_immediate / 4);
}

TEST(DelayedAckTest, TransferStillCompletes) {
  Env env(true, 10e6, millis(5));
  TcpConnection* server = nullptr;
  env.stack->tcp_listen(env.b, 80, [&](TcpConnection& c) { server = &c; });
  env.stack->tcp_connect(env.a, env.b, 80).send(2'000'000);
  env.sim.run_until(seconds(30.0));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->bytes_received(), 2'000'000u);
}

TEST(DelayedAckTest, TimerFlushesOddSegment) {
  // A single small message leaves one unacked segment; the 40 ms timer must
  // flush the ACK so the sender's data is acknowledged promptly.
  Env env(true);
  env.stack->tcp_listen(env.b, 80, [](TcpConnection&) {});
  auto& client = env.stack->tcp_connect(env.a, env.b, 80);
  client.send(1000);  // one segment
  env.sim.run_until(seconds(1.0));
  EXPECT_EQ(client.bytes_acked(), 1000u);
}

TEST(DelayedAckTest, OutOfOrderDataAckedImmediately) {
  // Loss on the data path: the receiver must emit immediate duplicate ACKs
  // (no delay) so fast retransmit still works; the transfer finishes fast.
  Env env(true, 20e6, millis(5));
  RngService rngs(5);
  env.net.channel(env.a, env.b).set_loss(0.01, rngs.stream("loss"));
  TcpConnection* server = nullptr;
  env.stack->tcp_listen(env.b, 80, [&](TcpConnection& c) { server = &c; });
  auto& client = env.stack->tcp_connect(env.a, env.b, 80);
  client.send(1'000'000);
  env.sim.run_until(seconds(60.0));
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->bytes_received(), 1'000'000u);
  EXPECT_GT(client.retransmissions(), 0u);
}

TEST(DelayedAckTest, WrenStillMeasuresWithDelayedAcks) {
  // The ablation the paper's design invites: Wren's ACK matching works on
  // cumulative coverage, so halving the feedback density must not break the
  // estimate — only coarsen it.
  topo::LanMeasurement run(40e6);
  run.stack.set_delayed_ack(true);
  run.send({{.count = 150, .message_bytes = 200'000, .spacing = millis(100)}});
  run.sim.run_until(seconds(12.0));

  const auto bw = run.analyzer.available_bandwidth_bps(run.tb.receiver);
  ASSERT_TRUE(bw.has_value());
  // Truth is 60 Mb/s; accept a wider band than the per-segment-ACK case.
  EXPECT_GT(*bw, 30e6);
  EXPECT_LT(*bw, 95e6);
}

}  // namespace
}  // namespace vw::transport
