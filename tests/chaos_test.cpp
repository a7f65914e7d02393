// Failure-resilience regression suite: stale-view expiry, queue flushing on
// link-down, migration failure/rollback/supersession, control-plane
// reconnect with backoff, daemon-death detection, and the end-to-end chaos
// scenario (deterministic under a fixed seed).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "topo/brite.hpp"
#include "topo/testbed.hpp"
#include "transport/stack.hpp"
#include "util/rng.hpp"
#include "vadapt/problem.hpp"
#include "vadapt/warm_start.hpp"
#include "virtuoso/challenge.hpp"
#include "virtuoso/system.hpp"
#include "vm/apps.hpp"
#include "vm/machine.hpp"
#include "vm/migration.hpp"
#include "vnet/control.hpp"
#include "vnet/overlay.hpp"
#include "wren/offline.hpp"
#include "wren/trace_binary.hpp"
#include "wren/view.hpp"

namespace vw {
namespace {

// --- stale measurements ------------------------------------------------------------

TEST(StaleViewTest, EntriesExpireFromAllQueries) {
  SimTime now = 0;
  wren::GlobalNetworkView view;
  view.set_clock([&] { return now; });
  view.set_staleness_horizon(seconds(10.0));

  view.update_bandwidth(1, 2, 50e6, now);
  view.update_latency(1, 2, 0.01, now);
  now = seconds(9.0);
  EXPECT_TRUE(view.bandwidth_bps(1, 2).has_value());
  EXPECT_TRUE(view.latency_seconds(1, 2).has_value());
  EXPECT_TRUE(view.is_fresh(view.entries().at({1, 2})));

  now = seconds(11.0);
  EXPECT_FALSE(view.bandwidth_bps(1, 2).has_value());
  EXPECT_FALSE(view.latency_seconds(1, 2).has_value());
  // Still held until expire_stale() sweeps it, but no longer fresh.
  EXPECT_FALSE(view.is_fresh(view.entries().at({1, 2})));

  // A fresh report resurrects the pair.
  view.update_bandwidth(1, 2, 60e6, now);
  ASSERT_TRUE(view.bandwidth_bps(1, 2).has_value());
  EXPECT_DOUBLE_EQ(*view.bandwidth_bps(1, 2), 60e6);
}

TEST(StaleViewTest, ZeroHorizonNeverExpires) {
  SimTime now = 0;
  wren::GlobalNetworkView view;
  view.set_clock([&] { return now; });
  view.update_bandwidth(1, 2, 50e6, now);
  now = seconds(1e6);
  EXPECT_TRUE(view.bandwidth_bps(1, 2).has_value());
}

TEST(StaleViewTest, InvalidateHostDropsEveryTouchingEntry) {
  wren::GlobalNetworkView view;
  view.update_bandwidth(1, 2, 1e6, 0);
  view.update_bandwidth(2, 1, 1e6, 0);
  view.update_bandwidth(2, 3, 1e6, 0);
  view.update_bandwidth(1, 3, 1e6, 0);
  EXPECT_EQ(view.invalidate_host(2), 3u);
  EXPECT_FALSE(view.bandwidth_bps(1, 2).has_value());
  EXPECT_FALSE(view.bandwidth_bps(2, 3).has_value());
  EXPECT_TRUE(view.bandwidth_bps(1, 3).has_value());
  view.invalidate(1, 3);
  EXPECT_FALSE(view.bandwidth_bps(1, 3).has_value());
}

TEST(StaleViewTest, ExpireStaleBoundsMemory) {
  SimTime now = 0;
  wren::GlobalNetworkView view;
  view.set_clock([&] { return now; });
  view.set_staleness_horizon(seconds(5.0));
  view.update_bandwidth(1, 2, 1e6, 0);
  view.update_bandwidth(3, 4, 1e6, seconds(4.0));
  now = seconds(6.0);
  EXPECT_EQ(view.expire_stale(), 1u);
  EXPECT_EQ(view.entries().size(), 1u);
}

// --- link-down queue flush ----------------------------------------------------------

TEST(ChannelDownTest, DownFlushesQueuesAndCancelsServiceInFlight) {
  sim::Simulator sim;
  net::Network net{sim};
  const net::NodeId a = net.add_host("a");
  const net::NodeId b = net.add_host("b");
  net::LinkConfig cfg;
  cfg.bits_per_sec = 1e6;  // slow: packets queue up
  cfg.prop_delay = millis(1);
  net.add_link(a, b, cfg);
  net.compute_routes();

  int delivered = 0;
  net.set_host_stack(b, [&](net::Packet&&) { ++delivered; });
  sim.schedule_at(millis(1), [&] {
    for (int i = 0; i < 20; ++i) {
      net::Packet p;
      p.flow = net::FlowKey{a, b, 1, 2, net::Protocol::kUdp};
      p.payload_bytes = 1000;
      net.send(std::move(p));
    }
  });
  // ~8 ms per packet at 1 Mb/s: the queue is deep and one packet is mid-
  // serialization when the link goes down.
  sim.schedule_at(millis(20), [&] { net.set_link_down(a, b, true); });
  sim.run_until(seconds(1.0));

  const net::ChannelStats& stats = net.channel(a, b).stats();
  EXPECT_GT(stats.packets_down_dropped, 0u);
  EXPECT_LT(delivered, 20);
  EXPECT_EQ(delivered + static_cast<int>(stats.packets_down_dropped), 20);

  // The cancelled service completion must not strand the channel: after the
  // link returns, new packets flow again.
  net.set_link_down(a, b, false);
  net::Packet p;
  p.flow = net::FlowKey{a, b, 1, 2, net::Protocol::kUdp};
  p.payload_bytes = 500;
  net.send(std::move(p));
  const int before = delivered;
  sim.run_until(seconds(2.0));
  EXPECT_EQ(delivered, before + 1);
}

// --- migration failure semantics ---------------------------------------------------

struct MigrationEnv {
  sim::Simulator sim;
  net::Network net{sim};
  std::vector<net::NodeId> hosts;
  net::NodeId sw = 0;
  std::unique_ptr<transport::TransportStack> stack;
  std::unique_ptr<vnet::Overlay> overlay;
  std::vector<std::unique_ptr<vm::VirtualMachine>> machines;

  MigrationEnv() {
    sw = net.add_router("switch");
    for (std::size_t i = 0; i < 3; ++i) {
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
    overlay->create_daemon(hosts[1], "d1");
    overlay->create_daemon(hosts[2], "d2");
    overlay->bootstrap_star(vnet::LinkProtocol::kUdp);
  }

  vm::VirtualMachine& vm_at(net::NodeId host, std::uint64_t memory = 16ull << 20) {
    const auto mac = static_cast<vnet::MacAddress>(machines.size() + 1);
    machines.push_back(std::make_unique<vm::VirtualMachine>(
        sim, *overlay, mac, "vm" + std::to_string(mac), memory));
    machines.back()->attach(host);
    return *machines.back();
  }
};

TEST(MigrationFailureTest, PathDownMidFlightFailsAndRollsBack) {
  MigrationEnv env;
  vm::VirtualMachine& m = env.vm_at(env.hosts[1]);
  vm::MigrationEngine engine(env.sim, env.net);

  vm::MigrationStatus status = vm::MigrationStatus::kCompleted;
  bool called = false;
  engine.migrate(m, env.hosts[2], [&](vm::VirtualMachine&, vm::MigrationStatus s) {
    called = true;
    status = s;
  });
  EXPECT_TRUE(engine.in_flight(m));
  // Cut the target's link while the ~2.3 s transfer is in flight.
  env.sim.schedule_at(seconds(1.0),
                      [&] { env.net.set_link_down(env.hosts[2], env.sw, true); });
  env.sim.run_until(seconds(10.0));

  EXPECT_TRUE(called);
  EXPECT_EQ(status, vm::MigrationStatus::kFailed);
  ASSERT_TRUE(m.attached());
  EXPECT_EQ(m.host(), env.hosts[1]);  // rolled back to the source
  EXPECT_FALSE(engine.in_flight(m));
  EXPECT_EQ(engine.migrations_failed(), 1u);
  EXPECT_EQ(engine.migrations_completed(), 0u);
}

TEST(MigrationFailureTest, RetargetSupersedesAndReestimatesRemaining) {
  MigrationEnv env;
  vm::VirtualMachine& m = env.vm_at(env.hosts[1]);
  vm::MigrationEngine engine(env.sim, env.net);

  vm::MigrationStatus first_status = vm::MigrationStatus::kCompleted;
  engine.migrate(m, env.hosts[2],
                 [&](vm::VirtualMachine&, vm::MigrationStatus s) { first_status = s; });
  const SimTime total = engine.estimate_duration(m, env.hosts[1], env.hosts[0]);

  vm::MigrationStatus second_status = vm::MigrationStatus::kFailed;
  env.sim.schedule_at(seconds(1.0), [&] {
    engine.migrate(m, env.hosts[0],
                   [&](vm::VirtualMachine&, vm::MigrationStatus s) { second_status = s; });
  });

  // The superseded request's callback fires with kSuperseded the moment the
  // re-target lands.
  env.sim.run_until(seconds(1.5));
  EXPECT_EQ(first_status, vm::MigrationStatus::kSuperseded);
  EXPECT_EQ(engine.migrations_superseded(), 1u);
  EXPECT_TRUE(engine.in_flight(m));

  // Completion keeps the ORIGINAL start time: elapsed work counts, so the
  // VM lands at started_at + re-estimated total, not 1 s later.
  env.sim.run_until(total - millis(100));
  EXPECT_TRUE(engine.in_flight(m));
  env.sim.run_until(total + millis(100));
  EXPECT_FALSE(engine.in_flight(m));
  EXPECT_EQ(second_status, vm::MigrationStatus::kCompleted);
  ASSERT_TRUE(m.attached());
  EXPECT_EQ(m.host(), env.hosts[0]);
  EXPECT_EQ(engine.migrations_started(), 1u);  // one transfer, re-targeted
  EXPECT_EQ(engine.migrations_completed(), 1u);
}

TEST(MigrationFailureTest, AbortReattachesAtSource) {
  MigrationEnv env;
  vm::VirtualMachine& m = env.vm_at(env.hosts[1]);
  vm::MigrationEngine engine(env.sim, env.net);

  vm::MigrationStatus status = vm::MigrationStatus::kCompleted;
  engine.migrate(m, env.hosts[2],
                 [&](vm::VirtualMachine&, vm::MigrationStatus s) { status = s; });
  env.sim.run_until(seconds(1.0));
  EXPECT_TRUE(engine.abort(m));
  EXPECT_EQ(status, vm::MigrationStatus::kAborted);
  ASSERT_TRUE(m.attached());
  EXPECT_EQ(m.host(), env.hosts[1]);
  EXPECT_EQ(engine.migrations_aborted(), 1u);
  EXPECT_FALSE(engine.abort(m));  // nothing in flight any more
  env.sim.run_until(seconds(10.0));
  EXPECT_EQ(engine.migrations_completed(), 0u);  // cancelled event never fires
}

// --- control-plane reconnect ---------------------------------------------------------

TEST(ControlReconnectTest, OutageDisconnectsThenReconnectsWithBackoffAndResends) {
  sim::Simulator sim;
  net::Network net{sim};
  const net::NodeId daemon_host = net.add_host("daemon");
  const net::NodeId proxy_host = net.add_host("proxy");
  const net::NodeId sw = net.add_router("sw");
  net::LinkConfig cfg;
  cfg.bits_per_sec = 100e6;
  cfg.prop_delay = millis(1);
  net.add_link(daemon_host, sw, cfg);
  net.add_link(sw, proxy_host, cfg);
  net.compute_routes();
  transport::TransportStack stack(net);

  vnet::ControlPlaneParams params;
  params.send_timeout = seconds(2.0);
  params.backoff_initial = millis(250);
  vnet::ControlPlane control(stack, proxy_host, 9001, params);

  int pings = 0;
  control.register_handler("Ping", [&](const soap::XmlNode&) { ++pings; });

  int sent = 0;
  sim::PeriodicTask pinger(sim, millis(500), [&] {
    soap::XmlNode msg;
    msg.name = "Ping";
    msg.attributes["n"] = std::to_string(sent++);
    control.send(daemon_host, msg);
  });

  net::FaultPlan faults(sim, net);
  faults.link_outage(seconds(5.0), seconds(15.0), daemon_host, sw);

  sim.run_until(seconds(5.0));
  const std::uint64_t delivered_pre_outage = control.messages_delivered();
  EXPECT_GT(delivered_pre_outage, 0u);
  EXPECT_TRUE(control.connection_healthy(daemon_host));

  // Mid-outage: the stall was detected and the connection torn down.
  sim.run_until(seconds(14.0));
  EXPECT_GE(control.disconnects(), 1u);
  EXPECT_FALSE(control.connection_healthy(daemon_host));

  sim.run_until(seconds(40.0));
  EXPECT_GE(control.reconnects(), 1u);
  // Backoff implies several attempts across a 10 s outage.
  EXPECT_GT(control.reconnect_attempts(), control.reconnects());
  EXPECT_GE(control.messages_resent(), 1u);
  EXPECT_TRUE(control.connection_healthy(daemon_host));
  // At-least-once: everything queued during the outage was replayed.
  sim.run_until(seconds(41.0));
  EXPECT_GE(control.messages_delivered(), static_cast<std::uint64_t>(sent) - 2);
  EXPECT_EQ(static_cast<int>(control.messages_delivered()), pings);
  EXPECT_EQ(control.messages_dropped(), 0u);  // window never overflowed
}

TEST(ControlReconnectTest, BackoffDoublesToCeiling) {
  sim::Simulator sim;
  net::Network net{sim};
  const net::NodeId daemon_host = net.add_host("daemon");
  const net::NodeId proxy_host = net.add_host("proxy");
  const net::NodeId sw = net.add_router("sw");
  net::LinkConfig cfg;
  cfg.bits_per_sec = 100e6;
  cfg.prop_delay = millis(1);
  net.add_link(daemon_host, sw, cfg);
  net.add_link(sw, proxy_host, cfg);
  net.compute_routes();
  transport::TransportStack stack(net);

  vnet::ControlPlaneParams params;  // backoff_initial = 500 ms
  vnet::ControlPlane control(stack, proxy_host, 9001, params);
  control.register_handler("Ping", [](const soap::XmlNode&) {});
  sim::PeriodicTask pinger(sim, millis(500), [&] {
    soap::XmlNode msg;
    msg.name = "Ping";
    control.send(daemon_host, msg);
  });

  // The link never returns: every attempt fails, so the daemon keeps
  // backing off. Each reconnect attempt follows the disconnect before it
  // by exactly one backoff delay; sample both counters on a 1 ms grid.
  net::FaultPlan faults(sim, net);
  faults.link_down(seconds(5.0), daemon_host, sw);
  std::vector<SimTime> disconnect_at;
  std::vector<SimTime> attempt_at;
  sim::PeriodicTask probe(sim, millis(1), [&] {
    if (control.disconnects() > disconnect_at.size()) disconnect_at.push_back(sim.now());
    if (control.reconnect_attempts() > attempt_at.size()) attempt_at.push_back(sim.now());
  });
  sim.run_until(seconds(200.0));

  const std::vector<SimTime> expected = {millis(500),    seconds(1.0),  seconds(2.0),
                                         seconds(4.0),   seconds(8.0),  seconds(16.0),
                                         vnet::kBackoffMax, vnet::kBackoffMax};
  ASSERT_GE(attempt_at.size(), expected.size());
  ASSERT_GE(disconnect_at.size(), attempt_at.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_NEAR(to_seconds(attempt_at[k] - disconnect_at[k]), to_seconds(expected[k]), 0.0015)
        << "attempt " << k;
  }
}

// --- daemon-failure detection --------------------------------------------------------

TEST(DaemonFailureTest, KilledDaemonIsDeclaredDeadAndExcluded) {
  sim::Simulator sim;
  net::Network net{sim};
  const net::NodeId sw = net.add_router("sw");
  std::vector<net::NodeId> hosts;
  for (int i = 0; i < 3; ++i) {
    const net::NodeId h = net.add_host("h" + std::to_string(i));
    net::LinkConfig cfg;
    cfg.bits_per_sec = 100e6;
    cfg.prop_delay = micros(50);
    net.add_link(h, sw, cfg);
    hosts.push_back(h);
  }
  net.compute_routes();

  virtuoso::SystemConfig config;
  config.telemetry = false;
  config.daemon_timeout = seconds(2.0);
  config.control_heartbeat_period = millis(500);
  virtuoso::VirtuosoSystem system(sim, net, config);
  system.add_daemon(hosts[0], "proxy", true);
  system.add_daemon(hosts[1], "d1");
  system.add_daemon(hosts[2], "d2");
  system.bootstrap(vnet::LinkProtocol::kUdp);

  system.network_view().update_bandwidth(hosts[0], hosts[2], 10e6, sim.now());
  system.network_view().update_bandwidth(hosts[0], hosts[1], 10e6, sim.now());

  sim.run_until(seconds(4.0));
  EXPECT_TRUE(system.daemon_alive(hosts[1]));
  EXPECT_TRUE(system.daemon_alive(hosts[2]));
  EXPECT_EQ(system.capacity_graph().size(), 3u);

  system.kill_daemon(hosts[2]);
  sim.run_until(seconds(10.0));
  EXPECT_TRUE(system.daemon_alive(hosts[0]));
  EXPECT_TRUE(system.daemon_alive(hosts[1]));
  EXPECT_FALSE(system.daemon_alive(hosts[2]));
  EXPECT_EQ(system.daemons_declared_dead(), 1u);
  EXPECT_EQ(system.capacity_graph().size(), 2u);
  EXPECT_EQ(system.live_daemon_hosts(), (std::vector<net::NodeId>{hosts[0], hosts[1]}));
  // Its measurements were invalidated with it; the others survive.
  EXPECT_FALSE(system.network_view().bandwidth_bps(hosts[0], hosts[2]).has_value());
  EXPECT_TRUE(system.network_view().bandwidth_bps(hosts[0], hosts[1]).has_value());
}

// --- end-to-end chaos scenario -------------------------------------------------------

struct ChaosResult {
  std::string signature;
  bool all_attached = true;
  bool trio_on_fast_cluster = false;
  std::uint64_t migrations_failed = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t daemons_died = 0;
  std::uint64_t replans = 0;
  /// Per daemon host: (peer, observation) as its online analyzer emitted them.
  std::map<net::NodeId, std::vector<std::pair<net::NodeId, wren::SicObservation>>> observations;
};

// The examples/chaos_cluster scenario (virtuoso::ChaosScenario), run for
// 60 s: the inter-domain link goes down while the first adaptation's
// migrations are crossing it. A non-empty capture_dir also writes every
// daemon's trace shard there.
ChaosResult run_chaos_scenario(std::uint64_t seed, bool warm_start = false,
                               vnet::LinkProtocol overlay = vnet::LinkProtocol::kUdp,
                               const std::string& capture_dir = "") {
  ChaosResult r;
  virtuoso::SystemConfig config;
  config.seed = seed;
  config.warm_start.enabled = warm_start;
  config.telemetry = false;
  config.capture_dir = capture_dir;
  virtuoso::ChaosScenario run(config, overlay);
  virtuoso::VirtuosoSystem& system = run.system;
  const topo::ChallengeNetwork& tb = run.tb;
  for (net::NodeId h : tb.hosts()) {
    auto& observed = r.observations[h];
    system.wren_on(h).set_on_observation(
        [&observed](net::NodeId peer, const wren::SicObservation& observation) {
          observed.push_back({peer, observation});
        });
  }

  run.sim.run_until(seconds(60.0));
  run.workload.app.stop();
  system.finish_capture();

  r.migrations_failed = system.migration().migrations_failed();
  r.reconnects = system.control_plane().reconnects();
  r.daemons_died = system.daemons_declared_dead();
  r.replans = system.failure_replans();
  const auto on_fast = [&](const vm::VirtualMachine& m) {
    return m.attached() && (m.host() == tb.domain2_hosts[0] || m.host() == tb.domain2_hosts[1] ||
                            m.host() == tb.domain2_hosts[2]);
  };
  const std::vector<vm::VirtualMachine*>& vms = run.workload.vms;
  r.trio_on_fast_cluster = on_fast(*vms[0]) && on_fast(*vms[1]) && on_fast(*vms[2]);
  std::ostringstream sig;
  for (const vm::VirtualMachine* m : vms) {
    r.all_attached = r.all_attached && m->attached();
    sig << (m->attached() ? static_cast<long long>(m->host()) : -1) << ",";
  }
  sig << system.auto_adaptations() << "," << r.replans << "," << r.migrations_failed << ","
      << system.migration().migrations_started() << "," << r.reconnects << ","
      << system.control_plane().disconnects() << ","
      << system.control_plane().messages_resent() << ","
      << system.control_plane().messages_delivered() << "," << r.daemons_died;
  r.signature = sig.str();
  return r;
}

TEST(ChaosScenarioTest, ResilienceInvariantsHoldThroughTheOutage) {
  const ChaosResult r = run_chaos_scenario(42);
  EXPECT_TRUE(r.all_attached) << "a VM was left detached";
  EXPECT_GT(r.migrations_failed, 0u);
  EXPECT_GT(r.reconnects, 0u);
  EXPECT_GT(r.daemons_died, 0u);
  EXPECT_GT(r.replans, 0u);
  // The loop still converged to the good placement after the chaos.
  EXPECT_TRUE(r.trio_on_fast_cluster);
}

TEST(ChaosScenarioTest, DeterministicUnderTheSameSeed) {
  const ChaosResult a = run_chaos_scenario(42);
  const ChaosResult b = run_chaos_scenario(42);
  EXPECT_EQ(a.signature, b.signature);
}

TEST(ChaosScenarioTest, DatapathOverhaulPreservesGoldenSignatures) {
  // Differential gate for the event-engine/datapath overhaul: these run
  // signatures were recorded on the pre-overhaul engine (commit 943c2a9,
  // std::function events + hash-set cancellation + per-hop map routing) for
  // the fig10-style challenge scenario. The slot-arena scheduler, SmallFn
  // callbacks, dense channel index, and move-forward packet path must
  // reproduce them bit-for-bit — any ordering drift in the rebuilt hot path
  // shows up here as a changed migration/reconnect/delivery count.
  //
  // Re-recorded for the planner-ordering fix: adapt_now() now refreshes
  // liveness and expires stale view entries before building its capacity
  // graph (refresh_view_before_planning), so replans no longer act on
  // dead-host adjacency. The fresher view yields a different (and smaller)
  // migration trajectory; both seeds still converge to the same placement.
  EXPECT_EQ(run_chaos_scenario(42).signature, "6,7,5,2,4,1,3,8,3,6,158,843,3");
  EXPECT_EQ(run_chaos_scenario(7).signature, "6,7,5,2,4,1,3,8,3,6,158,843,3");
}

TEST(WarmStartGoldenTest, ChaosSignaturesIdenticalWithKnobOnAndOff) {
  // The warm-start knob must be inert for this scenario: 4 VMs sits below the
  // vadapt::kWarmMinVms floor, so every adaptation falls back to
  // the cold planner and consumes exactly the same RNG streams. Any drift here
  // means the warm path leaked state (delta drain, RNG, counters) into the
  // cold trajectory.
  for (std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{7}}) {
    EXPECT_EQ(run_chaos_scenario(seed, /*warm_start=*/true).signature,
              "6,7,5,2,4,1,3,8,3,6,158,843,3")
        << "seed " << seed;
    EXPECT_EQ(run_chaos_scenario(seed, /*warm_start=*/false).signature,
              "6,7,5,2,4,1,3,8,3,6,158,843,3")
        << "seed " << seed;
  }
}

TEST(WarmStartGoldenTest, SystemRoutesSecondAdaptationThroughWarmPath) {
  // End-to-end wiring check on a problem at the kWarmMinVms floor: the first
  // adaptation is a cold solve that seeds the incumbent, and a subsequent
  // single-pair measurement shift re-adapts through the warm optimizer.
  constexpr std::size_t kHosts = 20;
  constexpr std::size_t n_vms = 16;
  static_assert(n_vms >= vadapt::kWarmMinVms && n_vms <= kHosts);
  RngService rngs(42);
  topo::BriteParams bp;
  bp.nodes = 32;
  Rng gen = rngs.stream("warm_wiring.brite");
  const topo::BriteTopology brite(bp, gen);
  sim::Simulator sim;
  Rng pick = rngs.stream("warm_wiring.hosts");
  const topo::BriteNetwork bn = topo::make_brite_network(sim, brite, kHosts, pick);

  virtuoso::SystemConfig config;
  config.seed = 42;
  config.telemetry = false;
  config.view_staleness_horizon = seconds(60.0);
  config.warm_start.enabled = true;
  virtuoso::VirtuosoSystem system(sim, *bn.network, config);
  for (std::size_t i = 0; i < kHosts; ++i) {
    system.add_daemon(bn.hosts[i], "h" + std::to_string(i), /*is_proxy=*/i == 0);
  }
  system.bootstrap(vnet::LinkProtocol::kUdp);

  // Ground truth: every daemon pair's routed path.
  vadapt::CapacityGraph truth(bn.hosts);
  for (std::size_t i = 0; i < kHosts; ++i) {
    for (std::size_t j = 0; j < kHosts; ++j) {
      if (i == j) continue;
      truth.set_bandwidth(i, j, bn.network->path_bottleneck_bps(bn.hosts[i], bn.hosts[j]));
      truth.set_latency(i, j, to_seconds(bn.network->path_prop_delay(bn.hosts[i], bn.hosts[j])));
    }
  }
  virtuoso::feed_view(system, bn.hosts, truth);

  // A ring of equal demands, one VM per host.
  std::vector<vm::VirtualMachine*> vms;
  vm::apps::DemandMatrix demands;
  for (std::size_t i = 0; i < n_vms; ++i) {
    vms.push_back(&system.create_vm("vm-" + std::to_string(i), bn.hosts[i], 4ull << 20));
    demands[{i, (i + 1) % n_vms}] = 2e6;
  }
  vm::apps::MatrixTrafficApp app(sim, vms, demands, millis(100));
  app.start();

  sim.run_until(seconds(5.0));
  system.adapt_now(virtuoso::AdaptationAlgorithm::kGreedy);
  EXPECT_EQ(system.cold_starts(), 1u);
  EXPECT_EQ(system.warm_starts(), 0u);

  // A single measurement shift: exactly the streaming-delta case the warm
  // optimizer exists for: h0 -> h1 drops to half its truth.
  sim.run_until(seconds(10.0));
  system.network_view().update_bandwidth(bn.hosts[0], bn.hosts[1], truth.bandwidth(0, 1) / 2,
                                         sim.now());
  system.adapt_now(virtuoso::AdaptationAlgorithm::kGreedy);
  EXPECT_EQ(system.warm_starts(), 1u);
  EXPECT_EQ(system.cold_starts(), 1u);
  app.stop();
}

// --- liveness-sweep -> replan ordering ---------------------------------------

// Regression for the ISSUE-9 snapshot-ordering bug: a replan must never
// optimize over an adjacency snapshot taken before invalidate_host() /
// expire_stale() ran. The scenario parks the run in the window where the
// ordering is the only defense: the victim daemon has been silent longer
// than daemon_timeout, but the *periodic* liveness sweep last fired before
// the timeout elapsed — so at plan time the Proxy still believes the host
// is alive and the view still holds (fresh-looking) entries for its paths.
// adapt_now() must refresh liveness + expiry itself before snapshotting.
TEST(PlanOrderingTest, AdaptRefreshesLivenessAndExpiryBeforeSnapshotting) {
  virtuoso::SystemConfig config;
  config.telemetry = false;
  config.control_heartbeat_period = seconds(1.0);
  config.daemon_timeout = seconds(60.0);  // periodic sweep every 30 s
  config.view_staleness_horizon = seconds(30.0);
  config.default_bandwidth_bps = 10e6;
  virtuoso::ChallengeCluster env(config);
  sim::Simulator& sim = env.sim;
  const topo::ChallengeNetwork& tb = env.tb;
  virtuoso::VirtuosoSystem& system = env.system;

  vm::VirtualMachine& a = system.create_vm("vm-a", tb.domain1_hosts[0], 8ull << 20);
  vm::VirtualMachine& b = system.create_vm("vm-b", tb.domain1_hosts[1], 8ull << 20);
  vm::apps::DemandMatrix demands;
  demands[{0, 1}] = demands[{1, 0}] = 4e6;
  vm::apps::MatrixTrafficApp app(sim, {&a, &b}, demands, millis(100));
  app.start();

  sim.run_until(seconds(5.0));  // every daemon has heartbeated
  const net::NodeId victim = tb.domain2_hosts[2];
  system.kill_daemon(victim);

  // Sweeps fire at t=30 (silent 25 s) and t=60 (silent 55 s): both inside
  // the timeout, so the belief "alive" survives them. At t=70 the daemon
  // has been silent 65 s > 60 s — dead in fact, alive in the Proxy's eyes.
  sim.run_until(seconds(70.0));
  app.stop();
  ASSERT_TRUE(system.daemon_alive(victim));

  wren::GlobalNetworkView& view = system.network_view();
  const net::NodeId live_a = tb.domain1_hosts[0];
  const net::NodeId live_b = tb.domain1_hosts[1];
  // Fresh-looking entries for the dead host's paths (only invalidate_host
  // removes these) and a stale live-pair entry (only expire_stale does).
  view.update_bandwidth(victim, live_a, 50e6, seconds(69.0));
  view.update_bandwidth(live_a, victim, 50e6, seconds(69.0));
  view.update_bandwidth(live_a, live_b, 5e6, seconds(10.0));
  ASSERT_TRUE(view.entries().contains({victim, live_a}));
  ASSERT_TRUE(view.entries().contains({live_a, live_b}));

  const virtuoso::AdaptationOutcome outcome =
      system.adapt_now(virtuoso::AdaptationAlgorithm::kGreedy);

  // The plan ran over a refreshed snapshot: the victim was declared dead
  // and scrubbed from the view first, the stale entry was dropped, and the
  // host set handed to the optimizer no longer contains the victim.
  EXPECT_FALSE(system.daemon_alive(victim));
  EXPECT_EQ(system.daemons_declared_dead(), 1u);
  EXPECT_FALSE(view.entries().contains({victim, live_a}));
  EXPECT_FALSE(view.entries().contains({live_a, victim}));
  EXPECT_FALSE(view.entries().contains({live_a, live_b}));
  for (const net::NodeId h : outcome.hosts) EXPECT_NE(h, victim);
}

// --- resend-window eviction holes --------------------------------------------

// During a long outage the resend window overflows and evicts
// *unacknowledged* reports. The control plane counts each such hole
// (window_gaps) among the drops, and the property that makes a make-up
// report unnecessary holds: FIFO eviction keeps the newest kResendWindow
// reports, and the reconnect replays exactly those, in order, so the newest
// snapshot is never the one lost.
TEST(ControlPlaneChaosTest, WindowOverflowCountsGapsAndReplaysTheNewestInOrder) {
  sim::Simulator sim;
  net::Network net{sim};
  const net::NodeId proxy_host = net.add_host("proxy");
  const net::NodeId daemon_host = net.add_host("daemon");
  const net::NodeId sw = net.add_router("sw");
  net::LinkConfig cfg;
  cfg.bits_per_sec = 100e6;
  cfg.prop_delay = millis(1);
  net.add_link(daemon_host, sw, cfg);
  net.add_link(sw, proxy_host, cfg);
  net.compute_routes();
  transport::TransportStack stack(net);

  vnet::ControlPlaneParams params;
  params.send_timeout = seconds(2.0);
  params.backoff_initial = millis(250);
  // A 20 s outage at 10 msgs/s queues 200 reports: the window overflows
  // long before the connection attempt that succeeds begins.
  static_assert(20 * 10 > 2 * vnet::kResendWindow);
  vnet::ControlPlane control(stack, proxy_host, 9001, params);

  std::vector<std::uint64_t> got;  // `n` of each delivered report, in order
  std::size_t replay_from = 0;     // index in `got` of the first post-outage one
  control.register_handler("Report", [&](const soap::XmlNode& msg) {
    if (sim.now() >= seconds(25.0) && replay_from == 0) replay_from = got.size();
    got.push_back(soap::attr<std::uint64_t>(msg, "n"));
  });

  // Reports sent before the latest reconnect attempt. An attempt is
  // scheduled one backoff (>= 250 ms) ahead, earlier than the reporter's
  // next tick (100 ms ahead), so when both fall at one instant the attempt
  // runs first.
  std::uint64_t sent = 0;
  std::uint64_t attempts_seen = 0;
  std::uint64_t sent_at_attempt = 0;
  sim::PeriodicTask reporter(sim, millis(100), [&] {
    if (control.reconnect_attempts() > attempts_seen) {
      attempts_seen = control.reconnect_attempts();
      sent_at_attempt = sent;
    }
    soap::XmlNode msg;
    msg.name = "Report";
    msg.attributes["n"] = std::to_string(sent++);
    control.send(daemon_host, msg);
  });

  net::FaultPlan faults(sim, net);
  faults.link_outage(seconds(5.0), seconds(25.0), daemon_host, sw);

  sim.run_until(seconds(5.0));
  EXPECT_GT(control.messages_delivered(), 0u);
  EXPECT_EQ(control.window_gaps(), 0u);

  // Deep into the outage the window has overflowed with unacked reports.
  sim.run_until(seconds(24.0));
  EXPECT_GT(control.window_gaps(), 0u);
  EXPECT_GE(control.messages_dropped(), control.window_gaps());

  sim.run_until(seconds(55.0));
  reporter.stop();  // let the last report land
  sim.run_until(seconds(60.0));
  EXPECT_EQ(control.reconnects(), 1u);
  ASSERT_GT(sent_at_attempt, vnet::kResendWindow);
  ASSERT_GT(replay_from, 0u);
  // The evicted reports are a hole in the stream...
  EXPECT_GT(got[replay_from], got[replay_from - 1] + 1);
  // ...but the replay is the newest kResendWindow reports queued at the
  // reconnect, in order, and every report after them follows with none
  // missing up to the last one sent.
  std::vector<std::uint64_t> expected;
  for (std::uint64_t n = sent_at_attempt - vnet::kResendWindow; n < sent; ++n) {
    expected.push_back(n);
  }
  EXPECT_EQ(std::vector<std::uint64_t>(got.begin() + static_cast<std::ptrdiff_t>(replay_from),
                                       got.end()),
            expected);
}

// Hosts on one switch, 100 Mb/s and 1 ms per link; hosts[0] hosts the Proxy.
struct SwitchedHosts {
  explicit SwitchedHosts(int n) {
    for (int i = 0; i < n; ++i) hosts.push_back(net.add_host("h" + std::to_string(i)));
    sw = net.add_router("sw");
    net::LinkConfig cfg;
    cfg.bits_per_sec = 100e6;
    cfg.prop_delay = millis(1);
    for (const net::NodeId h : hosts) net.add_link(h, sw, cfg);
    net.compute_routes();
  }
  sim::Simulator sim;
  net::Network net{sim};
  std::vector<net::NodeId> hosts;
  net::NodeId sw = net::kInvalidNode;
};

// The same hole at system level, flat tier: a daemon's heartbeats overflow
// its resend window during an outage, yet the view entry that went stale
// comes back with the periodic Wren reports alone. Every report is a full
// snapshot, so no make-up report is shipped on top of them: one that was
// would enter the full window, evict another unacknowledged message and so
// cause the next gap.
TEST(ControlPlaneChaosTest, FlatTierOutageHealsWithPeriodicReportsAlone) {
  SwitchedHosts env(2);
  const net::NodeId proxy = env.hosts[0];
  const net::NodeId daemon = env.hosts[1];
  virtuoso::SystemConfig config;
  config.control.send_timeout = seconds(2.0);
  config.control.backoff_initial = millis(250);
  // ~21 messages/s: kResendWindow holds about 3 s of an outage.
  config.control_heartbeat_period = millis(50);
  config.view_staleness_horizon = seconds(5.0);
  virtuoso::VirtuosoSystem system(env.sim, env.net, config);
  system.add_daemon(proxy, "proxy", true);
  system.add_daemon(daemon, "d1");
  system.bootstrap(vnet::LinkProtocol::kTcp);

  vm::VirtualMachine& a = system.create_vm("vm-a", proxy, 8ull << 20);
  vm::VirtualMachine& b = system.create_vm("vm-b", daemon, 8ull << 20);
  vm::apps::DemandMatrix demands;
  demands[{0, 1}] = 20e6;
  demands[{1, 0}] = 20e6;
  vm::apps::MatrixTrafficApp app(env.sim, {&a, &b}, demands);
  app.start();

  net::FaultPlan faults(env.sim, env.net);
  faults.link_outage(seconds(10.25), seconds(25.25), daemon, env.sw);
  vnet::ControlPlane& control = system.control_plane();
  const wren::GlobalNetworkView& view = system.network_view();
  obs::Counter* shipped = system.scope().counter("virtuoso.reports.wren");

  env.sim.run_until(seconds(10.25));
  ASSERT_TRUE(view.bandwidth_bps(daemon, proxy).has_value());
  EXPECT_EQ(control.window_gaps(), 0u);
  const std::uint64_t shipped_before = shipped->value();

  env.sim.run_until(seconds(25.25));
  EXPECT_GT(control.window_gaps(), 0u);
  EXPECT_FALSE(view.bandwidth_bps(daemon, proxy).has_value());  // went stale

  env.sim.run_until(seconds(45.25));
  EXPECT_TRUE(control.connection_healthy(daemon));
  EXPECT_TRUE(view.bandwidth_bps(daemon, proxy).has_value());
  // Each of the two hosts ships at most one periodic report per second of
  // these 35 s, and nothing else.
  const std::uint64_t periodic_max = 2 * 35;
  EXPECT_LE(shipped->value() - shipped_before, periodic_max);
  app.stop();
}

// Federated tier: a regional proxy host's summaries to the root overflow
// its resend window. The root sees the region's sequence numbers skip once
// the replay arrives, and the region's next export bypasses sampling. Top-1
// sampling alone never exports more than one of the region's pairs, so only
// that full export brings the other two to the root; the outage costs one
// full export, not one per health-check period.
TEST(ControlPlaneChaosTest, LostRegionalSummaryIsReExportedInFull) {
  SwitchedHosts env(4);
  virtuoso::SystemConfig config;
  config.control.send_timeout = seconds(2.0);
  config.control.backoff_initial = millis(250);
  config.federation.enabled = true;
  config.federation.regions = 2;  // round-robin: {h0, h2} and {h1, h3}
  config.federation.export_period = millis(100);
  config.federation.summary_max_pairs = 1;
  virtuoso::VirtuosoSystem system(env.sim, env.net, config);
  system.add_daemon(env.hosts[0], "proxy", true);
  for (int i = 1; i < 4; ++i) system.add_daemon(env.hosts[i], "d" + std::to_string(i));
  system.bootstrap(vnet::LinkProtocol::kUdp);

  const net::NodeId head = env.hosts[1];
  const net::NodeId member = env.hosts[3];
  ASSERT_EQ(system.region_map()->region_of(head), 1u);
  ASSERT_EQ(system.region_map()->region_of(member), 1u);
  // Three paths from the idle member, with equal weight and timestamp;
  // Wren's own measurements of the head's control connection rank above
  // them when fresher.
  const std::vector<std::tuple<net::NodeId, net::NodeId, double>> held = {
      {member, env.hosts[0], 10e6}, {member, head, 20e6}, {member, env.hosts[2], 30e6}};
  for (const auto& [from, to, bps] : held) {
    system.regional_proxy(1)->view().update_bandwidth(from, to, bps, seconds(1.0));
  }

  net::FaultPlan faults(env.sim, env.net);
  faults.link_outage(seconds(5.25), seconds(20.25), head, env.sw);
  vnet::ControlPlane& control = system.control_plane();
  const wren::GlobalNetworkView& root_view = system.network_view();

  // Region 1 exports at every multiple of 100 ms; a probe 50 ms later sees
  // what each export carried, and one carrying more than the sampling bound
  // is a full export.
  std::uint64_t full_exports = 0;
  std::uint64_t exported_before = 0;
  std::unique_ptr<sim::PeriodicTask> probe;
  env.sim.schedule_in(millis(50), [&] {
    probe = std::make_unique<sim::PeriodicTask>(env.sim, millis(100), [&] {
      const std::uint64_t exported = system.regional_proxy(1)->entries_exported();
      if (exported - exported_before > config.federation.summary_max_pairs) ++full_exports;
      exported_before = exported;
    });
  });

  env.sim.run_until(seconds(5.25));
  EXPECT_EQ(control.window_gaps(), 0u);
  std::size_t sampled = 0;
  for (const auto& [from, to, bps] : held) sampled += root_view.entries().count({from, to});
  EXPECT_LE(sampled, 1u);

  env.sim.run_until(seconds(20.25));
  EXPECT_GT(control.window_gaps(), 0u);

  env.sim.run_until(seconds(40.25));
  EXPECT_TRUE(control.connection_healthy(head));
  EXPECT_GT(system.federation_root()->seq_gaps(), 0u);
  for (const auto& [from, to, bps] : held) {
    const auto it = root_view.entries().find({from, to});
    ASSERT_NE(it, root_view.entries().end()) << from << "->" << to;
    EXPECT_EQ(it->second.bandwidth_bps, bps);
    EXPECT_EQ(it->second.updated_at, seconds(1.0));  // the regional timestamp
  }
  EXPECT_EQ(full_exports, 1u);
}

TEST(ChaosScenarioTest, CapturedShardsReplayToTheOnlineObservations) {
  // Offline replay runs the online analyzer's collection step at its
  // cadence: every daemon's shard replays to exactly the observation series
  // its analyzer produced during the run. Over the UDP overlay Wren sees
  // only the control and migration connections; over the TCP overlay it
  // also sees the VM traffic.
  for (const vnet::LinkProtocol overlay : {vnet::LinkProtocol::kUdp, vnet::LinkProtocol::kTcp}) {
    const bool udp = overlay == vnet::LinkProtocol::kUdp;
    const std::string dir =
        ::testing::TempDir() + (udp ? "chaos-capture-udp" : "chaos-capture-tcp");
    const ChaosResult r = run_chaos_scenario(42, /*warm_start=*/false, overlay, dir);
    if (udp) {
      EXPECT_EQ(r.signature, "6,7,5,2,4,1,3,8,3,6,158,843,3");  // capture only observes
    }
    ASSERT_EQ(r.observations.size(), 6u);  // one analyzer per daemon host

    std::size_t total = 0;
    for (const auto& [host, emitted] : r.observations) {
      const wren::BinaryTrace shard =
          wren::read_trace_binary_file(dir + "/trace_host" + std::to_string(host) + ".vwtrace");
      const wren::OfflineResult offline = wren::analyze_offline(shard.records);
      auto online = emitted;
      std::stable_sort(online.begin(), online.end(), [](const auto& a, const auto& b) {
        return a.second.time < b.second.time;
      });
      ASSERT_EQ(offline.observations.size(), online.size()) << dir << " host " << host;
      for (std::size_t i = 0; i < online.size(); ++i) {
        ASSERT_EQ(offline.observations[i].first.dst, online[i].first)
            << dir << " host " << host << " #" << i;
        ASSERT_EQ(offline.observations[i].second, online[i].second)
            << dir << " host " << host << " #" << i;
      }
      total += online.size();
    }
    EXPECT_GT(total, udp ? 50u : 5000u) << dir;
  }
}

TEST(ChaosScenarioTest, SecondSeedAlsoSurvives) {
  const ChaosResult r = run_chaos_scenario(7);
  EXPECT_TRUE(r.all_attached);
  EXPECT_GT(r.migrations_failed, 0u);
  EXPECT_GT(r.reconnects, 0u);
}

}  // namespace
}  // namespace vw
