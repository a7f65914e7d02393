// Tests for VTTIF: traffic matrices, topology inference (normalization and
// pruning), the local accumulate/push half, the global sliding-window
// aggregation, and the damped change detection.

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "transport/stack.hpp"
#include "vnet/overlay.hpp"
#include "vttif/global.hpp"
#include "vttif/local.hpp"
#include "vttif/matrix.hpp"

namespace vw::vttif {
namespace {

TEST(TrafficMatrixTest, AddAndQuery) {
  TrafficMatrix m;
  m.add(1, 2, 100);
  m.add(1, 2, 50);
  m.add(2, 1, 10);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 150);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 10);
  EXPECT_DOUBLE_EQ(m.at(3, 4), 0);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.total(), 160);
  EXPECT_DOUBLE_EQ(m.max_entry(), 150);
}

TEST(TrafficMatrixTest, ZeroAddIsIgnored) {
  TrafficMatrix m;
  m.add(1, 2, 0);
  EXPECT_TRUE(m.empty());
}

TEST(TrafficMatrixTest, MergeAndScale) {
  TrafficMatrix a, b;
  a.add(1, 2, 100);
  b.add(1, 2, 50);
  b.add(3, 4, 10);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.at(1, 2), 150);
  EXPECT_DOUBLE_EQ(a.at(3, 4), 10);
  a.scale(0.5);
  EXPECT_DOUBLE_EQ(a.at(1, 2), 75);
}

TEST(InferTopologyTest, PrunesWeakEdges) {
  TrafficMatrix m;
  m.add(1, 2, 1000);
  m.add(2, 3, 500);
  m.add(3, 4, 50);  // 5% of max: below the 10% cutoff
  const Topology topo = infer_topology(m);
  ASSERT_EQ(topo.edges.size(), 2u);
  EXPECT_DOUBLE_EQ(topo.edges[0].normalized, 1.0);
  EXPECT_DOUBLE_EQ(topo.edges[1].normalized, 0.5);
}

TEST(InferTopologyTest, EmptyMatrixYieldsEmptyTopology) {
  EXPECT_TRUE(infer_topology(TrafficMatrix{}).edges.empty());
}

TEST(TopologyTest, SameShapeComparesEdgeSets) {
  TrafficMatrix m1, m2;
  m1.add(1, 2, 100);
  m2.add(1, 2, 70);  // same edge, different rate
  EXPECT_TRUE(infer_topology(m1).same_shape(infer_topology(m2)));
  m2.add(2, 3, 60);
  EXPECT_FALSE(infer_topology(m1).same_shape(infer_topology(m2)));
}

TEST(TopologyTest, MaxRelativeChange) {
  TrafficMatrix m1, m2;
  m1.add(1, 2, 100);
  m2.add(1, 2, 150);
  const double change =
      infer_topology(m2).max_relative_change(infer_topology(m1));
  EXPECT_NEAR(change, 0.5, 1e-9);
}

struct VttifEnv {
  sim::Simulator sim;
  net::Network net{sim};
  net::NodeId host;
  std::unique_ptr<transport::TransportStack> stack;
  std::unique_ptr<vnet::Overlay> overlay;
  vnet::VnetDaemon* daemon = nullptr;

  VttifEnv() {
    host = net.add_host("h");
    const net::NodeId other = net.add_host("other");
    net.add_link(host, other, {});
    net.compute_routes();
    stack = std::make_unique<transport::TransportStack>(net);
    overlay = std::make_unique<vnet::Overlay>(*stack);
    daemon = &overlay->create_daemon(host, "d", /*is_proxy=*/true);
    daemon->attach_vm(1, [](vnet::FramePtr) {});
    daemon->attach_vm(2, [](vnet::FramePtr) {});
  }

  void inject(vnet::MacAddress src, vnet::MacAddress dst, std::uint32_t bytes) {
    vnet::EthernetFrame f;
    f.src_mac = src;
    f.dst_mac = dst;
    f.payload_bytes = bytes;
    daemon->inject_from_vm(f);
  }
};

TEST(LocalVttifTest, AccumulatesBitsAndPushesPeriodically) {
  VttifEnv env;
  std::vector<TrafficMatrix> pushes;
  LocalVttif local(env.sim, *env.daemon,
                   [&](net::NodeId, const TrafficMatrix& m) { pushes.push_back(m); });
  env.inject(1, 2, 1000 - vnet::kEthernetHeaderBytes);  // 1000B on the virtual wire
  env.inject(1, 2, 1000 - vnet::kEthernetHeaderBytes);
  env.sim.run_until(seconds(1.5));
  ASSERT_EQ(pushes.size(), 1u);
  EXPECT_DOUBLE_EQ(pushes[0].at(1, 2), 2 * 1000 * 8.0);
}

TEST(LocalVttifTest, NoPushWhenIdle) {
  VttifEnv env;
  int pushes = 0;
  LocalVttif local(env.sim, *env.daemon, [&](net::NodeId, const TrafficMatrix&) { ++pushes; });
  env.sim.run_until(seconds(5.0));
  EXPECT_EQ(pushes, 0);
}

TEST(GlobalVttifTest, SlidingWindowRates) {
  sim::Simulator sim;
  GlobalVttif global(sim);

  // 8000 bits/sec for a full window of 1 s slots.
  static_assert(kAggregationPeriod == seconds(1.0));
  const int slots = static_cast<int>(kWindowSlots);
  for (int t = 0; t < slots; ++t) {
    sim.schedule_at(millis(100) + seconds(static_cast<double>(t)), [&global] {
      TrafficMatrix m;
      m.add(1, 2, 8000);
      global.update_from(0, m);
    });
  }
  sim.run_until(seconds(static_cast<double>(slots) + 0.5));
  EXPECT_NEAR(global.smoothed_rate_matrix().at(1, 2), 8000, 1);
}

TEST(GlobalVttifTest, LowPassDampsBursts) {
  sim::Simulator sim;
  GlobalVttif global(sim);
  static_assert(kAggregationPeriod == seconds(1.0) && kWindowSlots == 10);
  // One slot's worth of traffic, then silence: the windowed rate is the
  // burst divided by the whole window.
  sim.schedule_at(millis(100), [&global] {
    TrafficMatrix m;
    m.add(1, 2, 100'000);
    global.update_from(0, m);
  });
  sim.run_until(seconds(10.5));
  EXPECT_NEAR(global.smoothed_rate_matrix().at(1, 2), 10'000, 1);
}

TEST(GlobalVttifTest, ChangeCallbackFiresOnFirstTopology) {
  sim::Simulator sim;
  GlobalVttif global(sim);
  int changes = 0;
  global.set_on_change([&](const Topology&) { ++changes; });
  sim.schedule_at(millis(100), [&global] {
    TrafficMatrix m;
    m.add(1, 2, 1000);
    global.update_from(0, m);
  });
  sim.run_until(seconds(2.0));
  EXPECT_EQ(changes, 1);
}

TEST(GlobalVttifTest, CooldownPreventsOscillation) {
  sim::Simulator sim;
  GlobalVttif global(sim);
  int changes = 0;
  global.set_on_change([&](const Topology&) { ++changes; });
  // Alternate between two very different patterns every second.
  for (int t = 0; t < 20; ++t) {
    sim.schedule_at(millis(100) + seconds(static_cast<double>(t)), [&global, t] {
      TrafficMatrix m;
      if (t % 2 == 0) {
        m.add(1, 2, 1'000'000);
      } else {
        m.add(3, 4, 1'000'000);
      }
      global.update_from(0, m);
    });
  }
  // The first report lands when the first slot closes at 1 s; every later
  // slot inside the cooldown is swallowed.
  sim.run_until(seconds(1.0) + kReactionCooldown - millis(500));
  EXPECT_EQ(changes, 1);  // damped: no oscillating adaptation triggers
  EXPECT_EQ(global.changes_reported(), 1u);
  // Once the cooldown has passed, the mixed pattern reports exactly once more.
  sim.run_until(seconds(1.0) + kReactionCooldown + millis(500));
  EXPECT_EQ(changes, 2);
}

TEST(GlobalVttifTest, StablePatternReportsOnce) {
  sim::Simulator sim;
  GlobalVttif global(sim);
  int changes = 0;
  global.set_on_change([&](const Topology&) { ++changes; });
  for (int t = 0; t < 15; ++t) {
    sim.schedule_at(millis(100) + seconds(static_cast<double>(t)), [&global] {
      TrafficMatrix m;
      m.add(1, 2, 1'000'000);
      global.update_from(0, m);
    });
  }
  sim.run_until(seconds(16.0));
  EXPECT_EQ(changes, 1);  // steady state: one report, no re-triggers
}

TEST(GlobalVttifTest, EndToEndWithLocalHalf) {
  // LocalVttif on a daemon feeding GlobalVttif: the inferred topology must
  // reflect the injected pattern.
  VttifEnv env;
  GlobalVttif global(env.sim);
  LocalVttif local(env.sim, *env.daemon, [&](net::NodeId reporter, const TrafficMatrix& m) {
    global.update_from(reporter, m);
  });
  // Strong 1->2, weak 2->1.
  for (int t = 0; t < 30; ++t) {
    env.sim.schedule_at(millis(100 * t), [&env, t] {
      env.inject(1, 2, 10'000);
      if (t % 10 == 0) env.inject(2, 1, 200);
    });
  }
  env.sim.run_until(seconds(4.0));
  const Topology topo = global.current_topology();
  ASSERT_GE(topo.edges.size(), 1u);
  EXPECT_EQ(topo.edges[0].src, 1u);
  EXPECT_EQ(topo.edges[0].dst, 2u);
  EXPECT_DOUBLE_EQ(topo.edges[0].normalized, 1.0);
}

}  // namespace
}  // namespace vw::vttif
