// Tests for the VM layer: message fragmentation/reassembly through VNET,
// migration (detach/transfer/re-attach, cost model), and the application
// workload generators.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "transport/stack.hpp"
#include "vm/apps.hpp"
#include "vm/machine.hpp"
#include "vm/migration.hpp"
#include "vnet/overlay.hpp"

namespace vw::vm {
namespace {

struct VmEnv {
  sim::Simulator sim;
  net::Network net{sim};
  std::vector<net::NodeId> hosts;
  std::unique_ptr<transport::TransportStack> stack;
  std::unique_ptr<vnet::Overlay> overlay;
  std::vector<std::unique_ptr<VirtualMachine>> machines;

  explicit VmEnv(std::size_t n_hosts = 3) {
    const net::NodeId sw = net.add_router("switch");
    for (std::size_t i = 0; i < n_hosts; ++i) {
      const net::NodeId h = net.add_host("host-" + std::to_string(i));
      net::LinkConfig cfg;
      cfg.bits_per_sec = 100e6;
      cfg.prop_delay = micros(50);
      net.add_link(h, sw, cfg);
      hosts.push_back(h);
    }
    net.compute_routes();
    stack = std::make_unique<transport::TransportStack>(net);
    overlay = std::make_unique<vnet::Overlay>(*stack);
    overlay->create_daemon(hosts[0], "proxy", /*is_proxy=*/true);
    for (std::size_t i = 1; i < n_hosts; ++i) {
      overlay->create_daemon(hosts[i], "d" + std::to_string(i));
    }
    overlay->bootstrap_star(vnet::LinkProtocol::kUdp);
  }

  VirtualMachine& vm(vnet::MacAddress mac, net::NodeId host,
                     std::uint64_t memory = 64ull << 20) {
    machines.push_back(
        std::make_unique<VirtualMachine>(sim, *overlay, mac, "vm" + std::to_string(mac), memory));
    machines.back()->attach(host);
    return *machines.back();
  }
};

TEST(VirtualMachineTest, SmallMessageSingleFrame) {
  VmEnv env;
  VirtualMachine& a = env.vm(1, env.hosts[1]);
  VirtualMachine& b = env.vm(2, env.hosts[2]);
  std::uint64_t got = 0;
  b.set_on_message([&](vnet::MacAddress src, std::uint64_t bytes, const std::any&) {
    EXPECT_EQ(src, 1u);
    got = bytes;
  });
  a.send_message(2, 800);
  env.sim.run_until(seconds(1.0));
  EXPECT_EQ(got, 800u);
  EXPECT_EQ(a.messages_sent(), 1u);
  EXPECT_EQ(b.messages_received(), 1u);
}

TEST(VirtualMachineTest, LargeMessageFragmentsAndReassembles) {
  VmEnv env;
  VirtualMachine& a = env.vm(1, env.hosts[1]);
  VirtualMachine& b = env.vm(2, env.hosts[2]);
  std::uint64_t got = 0;
  b.set_on_message([&](vnet::MacAddress, std::uint64_t bytes, const std::any&) { got = bytes; });
  a.send_message(2, 200'000);  // ~134 MTU frames
  env.sim.run_until(seconds(2.0));
  EXPECT_EQ(got, 200'000u);
  EXPECT_EQ(b.messages_received(), 1u);
  EXPECT_GE(b.bytes_received(), 200'000u);
}

TEST(VirtualMachineTest, TagRidesWithMessage) {
  VmEnv env;
  VirtualMachine& a = env.vm(1, env.hosts[1]);
  VirtualMachine& b = env.vm(2, env.hosts[2]);
  std::string got;
  b.set_on_message([&](vnet::MacAddress, std::uint64_t, const std::any& tag) {
    if (const auto* s = std::any_cast<std::string>(&tag)) got = *s;
  });
  a.send_message(2, 5000, std::any(std::string("hello")));
  env.sim.run_until(seconds(1.0));
  EXPECT_EQ(got, "hello");
}

TEST(VirtualMachineTest, SameHostVmToVm) {
  VmEnv env;
  VirtualMachine& a = env.vm(1, env.hosts[1]);
  VirtualMachine& b = env.vm(2, env.hosts[1]);
  std::uint64_t got = 0;
  b.set_on_message([&](vnet::MacAddress, std::uint64_t bytes, const std::any&) { got = bytes; });
  a.send_message(2, 3000);
  env.sim.run_until(seconds(1.0));
  EXPECT_EQ(got, 3000u);
}

TEST(VirtualMachineTest, DetachedVmDropsSends) {
  VmEnv env;
  VirtualMachine& a = env.vm(1, env.hosts[1]);
  a.detach();
  a.send_message(2, 1000);  // must not crash
  EXPECT_EQ(a.messages_sent(), 0u);
  EXPECT_THROW(a.host(), std::logic_error);
}

TEST(VirtualMachineTest, DoubleAttachThrows) {
  VmEnv env;
  VirtualMachine& a = env.vm(1, env.hosts[1]);
  EXPECT_THROW(a.attach(env.hosts[2]), std::logic_error);
}

TEST(MigrationTest, MovesVmAndTrafficFollows) {
  VmEnv env;
  VirtualMachine& a = env.vm(1, env.hosts[1]);
  VirtualMachine& b = env.vm(2, env.hosts[2], 16ull << 20);
  std::uint64_t got = 0;
  b.set_on_message([&](vnet::MacAddress, std::uint64_t bytes, const std::any&) { got += bytes; });

  MigrationEngine engine(env.sim, env.net);
  bool done = false;
  engine.migrate(b, env.hosts[1], [&](VirtualMachine&, MigrationStatus status) {
    done = status == MigrationStatus::kCompleted;
  });
  EXPECT_FALSE(b.attached());  // paused during transfer
  env.sim.run_until(seconds(30.0));
  EXPECT_TRUE(done);
  ASSERT_TRUE(b.attached());
  EXPECT_EQ(b.host(), env.hosts[1]);
  EXPECT_EQ(engine.migrations_completed(), 1u);

  // Post-migration delivery works (same-host now).
  a.send_message(2, 4000);
  env.sim.run_until(seconds(31.0));
  EXPECT_EQ(got, 4000u);
}

TEST(MigrationTest, NoopWhenAlreadyThere) {
  VmEnv env;
  VirtualMachine& a = env.vm(1, env.hosts[1]);
  MigrationEngine engine(env.sim, env.net);
  bool done = false;
  engine.migrate(a, env.hosts[1], [&](VirtualMachine&, MigrationStatus status) {
    done = status == MigrationStatus::kCompleted;
  });
  EXPECT_TRUE(done);  // immediate
  EXPECT_EQ(engine.migrations_started(), 0u);
}

TEST(MigrationTest, RetargetMidFlightLandsAtLatestTarget) {
  VmEnv env;
  VirtualMachine& a = env.vm(1, env.hosts[0], 64ull << 20);
  MigrationEngine engine(env.sim, env.net);
  engine.migrate(a, env.hosts[1]);
  EXPECT_TRUE(engine.in_flight(a));
  // Re-target while the first transfer is still in progress.
  engine.migrate(a, env.hosts[2]);
  env.sim.run_until(seconds(60.0));
  ASSERT_TRUE(a.attached());
  EXPECT_EQ(a.host(), env.hosts[2]);
  EXPECT_FALSE(engine.in_flight(a));
  EXPECT_EQ(engine.migrations_started(), 1u);  // one transfer, re-targeted
}

TEST(MigrationTest, DurationScalesWithMemory) {
  VmEnv env;
  VirtualMachine& small = env.vm(1, env.hosts[1], 16ull << 20);
  VirtualMachine& large = env.vm(2, env.hosts[1], 256ull << 20);
  MigrationEngine engine(env.sim, env.net);
  const SimTime t_small = engine.estimate_duration(small, env.hosts[1], env.hosts[2]);
  const SimTime t_large = engine.estimate_duration(large, env.hosts[1], env.hosts[2]);
  EXPECT_GT(t_large, 10 * t_small / 2);
  EXPECT_GT(t_small, 0);
}

// --- application workloads --------------------------------------------------------

TEST(DemandsTest, AllToAllShape) {
  const auto m = apps::all_to_all(4, 1e6);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_DOUBLE_EQ(m.at({0, 3}), 1e6);
}

TEST(DemandsTest, RingShape) {
  const auto m = apps::ring(4, 1e6);
  EXPECT_EQ(m.size(), 4u);
  EXPECT_DOUBLE_EQ(m.at({3, 0}), 1e6);
}

TEST(DemandsTest, MultigridIsAsymmetricAndHierarchical) {
  const auto m = apps::multigrid4(8e6);
  EXPECT_GT(m.at({0, 1}), m.at({0, 2}));  // fine grid beats coarse
  EXPECT_GT(m.at({0, 2}), m.at({0, 3}));
  EXPECT_GT(m.at({0, 1}), m.at({1, 0}));  // asymmetry
}

TEST(MatrixTrafficAppTest, GeneratesDemandedRates) {
  VmEnv env;
  VirtualMachine& a = env.vm(1, env.hosts[1]);
  VirtualMachine& b = env.vm(2, env.hosts[2]);
  std::uint64_t got = 0;
  b.set_on_message([&](vnet::MacAddress, std::uint64_t bytes, const std::any&) { got += bytes; });

  apps::DemandMatrix demands;
  demands[{0, 1}] = 4e6;  // 4 Mbps from a to b
  apps::MatrixTrafficApp app(env.sim, {&a, &b}, demands, millis(100));
  app.start();
  env.sim.run_until(seconds(5.0));
  app.stop();
  const double rate = static_cast<double>(got) * 8.0 / 5.0;
  EXPECT_NEAR(rate, 4e6, 0.8e6);
}

TEST(MatrixTrafficAppTest, OutOfRangeDemandThrows) {
  VmEnv env;
  VirtualMachine& a = env.vm(1, env.hosts[1]);
  apps::DemandMatrix demands;
  demands[{0, 5}] = 1e6;
  EXPECT_THROW(apps::MatrixTrafficApp(env.sim, {&a}, demands), std::out_of_range);
}

TEST(BspAppTest, RingNeighborsShape) {
  const auto n2 = apps::BspNeighborApp::ring_neighbors(2);
  EXPECT_EQ(n2[0], (std::vector<std::size_t>{1}));
  const auto n4 = apps::BspNeighborApp::ring_neighbors(4);
  EXPECT_EQ(n4[0], (std::vector<std::size_t>{1, 3}));
}

TEST(BspAppTest, GridNeighborsShape) {
  const auto g = apps::BspNeighborApp::grid_neighbors(2, 2);
  // Corner of a 2x2 grid has exactly 2 neighbors.
  EXPECT_EQ(g[0].size(), 2u);
  EXPECT_EQ(g[3].size(), 2u);
}

TEST(BspAppTest, SuperstepsAdvanceInLockstep) {
  VmEnv env(4);
  VirtualMachine& a = env.vm(1, env.hosts[1]);
  VirtualMachine& b = env.vm(2, env.hosts[2]);
  VirtualMachine& c = env.vm(3, env.hosts[1]);
  apps::BspNeighborApp app(env.sim, {&a, &b, &c}, apps::BspNeighborApp::ring_neighbors(3),
                           20'000, millis(10));
  app.start();
  env.sim.run_until(seconds(10.0));
  app.stop();
  EXPECT_GT(app.supersteps_completed(), 5u);
  EXPECT_GT(app.messages_sent(), 3 * app.supersteps_completed());
}

// Destroyed mid-superstep, the app leaves neither a compute timer nor a VM
// message callback pointing at it, and no VM sends for it any more.
TEST(BspAppTest, DestroyedMidRun) {
  VmEnv env(4);
  std::vector<VirtualMachine*> vms{&env.vm(1, env.hosts[1]), &env.vm(2, env.hosts[2]),
                                   &env.vm(3, env.hosts[1])};
  auto app = std::make_unique<apps::BspNeighborApp>(
      env.sim, vms, apps::BspNeighborApp::ring_neighbors(3), 20'000, millis(10));
  app->start();
  env.sim.run_until(seconds(1.0));
  ASSERT_GT(app->supersteps_completed(), 0u);
  app.reset();
  const auto sent = [&vms] {
    return vms[0]->messages_sent() + vms[1]->messages_sent() + vms[2]->messages_sent();
  };
  const std::uint64_t at_destruction = sent();
  env.sim.run_until(seconds(3.0));
  EXPECT_EQ(sent(), at_destruction);
}

}  // namespace
}  // namespace vw::vm
