// Integration tests for the full Virtuoso runtime: daemons + star overlay,
// VM traffic observed by VTTIF, Wren measuring the physical paths through
// the VNET encapsulation, the Proxy's global views, and end-to-end
// adaptation (measure -> infer -> optimize -> migrate/re-route).

#include <gtest/gtest.h>

#include "topo/testbed.hpp"
#include "vm/apps.hpp"
#include "virtuoso/challenge.hpp"

namespace vw::virtuoso {
namespace {

TEST(VirtuosoTest, VmTrafficFlowsThroughOverlay) {
  ChallengeCluster env;
  vm::VirtualMachine& a = env.system.create_vm("vm-a", env.tb.domain1_hosts[0]);
  vm::VirtualMachine& b = env.system.create_vm("vm-b", env.tb.domain1_hosts[1]);
  std::uint64_t got = 0;
  b.set_on_message([&](vnet::MacAddress, std::uint64_t bytes, const std::any&) { got += bytes; });
  a.send_message(b.mac(), 50'000);
  env.sim.run_until(seconds(2.0));
  EXPECT_EQ(got, 50'000u);
}

TEST(VirtuosoTest, VttifInfersApplicationTopology) {
  ChallengeCluster env;
  vm::VirtualMachine& a = env.system.create_vm("vm-a", env.tb.domain1_hosts[0]);
  vm::VirtualMachine& b = env.system.create_vm("vm-b", env.tb.domain1_hosts[1]);
  vm::apps::DemandMatrix demands;
  demands[{0, 1}] = 5e6;
  vm::apps::MatrixTrafficApp app(env.sim, {&a, &b}, demands, millis(100));
  app.start();
  env.sim.run_until(seconds(8.0));
  app.stop();
  const auto inferred = env.system.current_demands();
  ASSERT_EQ(inferred.size(), 1u);
  EXPECT_EQ(inferred[0].src, 0u);
  EXPECT_EQ(inferred[0].dst, 1u);
  // Rate within a factor of ~2 (includes headers, window smoothing ramp).
  EXPECT_GT(inferred[0].rate_bps, 2.5e6);
  EXPECT_LT(inferred[0].rate_bps, 10e6);
}

TEST(VirtuosoTest, WrenViewPopulatesForCommunicatingDaemons) {
  ChallengeCluster env;
  vm::VirtualMachine& a = env.system.create_vm("vm-a", env.tb.domain2_hosts[0]);
  vm::VirtualMachine& b = env.system.create_vm("vm-b", env.tb.domain2_hosts[1]);
  vm::apps::DemandMatrix demands;
  demands[{0, 1}] = 20e6;
  vm::apps::MatrixTrafficApp app(env.sim, {&a, &b}, demands, millis(100));
  app.start();
  env.sim.run_until(seconds(10.0));
  app.stop();
  // The VM traffic crossed the overlay, but UDP overlay links carry no TCP
  // for Wren to mine, so the pair stays unmeasured: the protocol dependence
  // that feed_view() exists for on this overlay.
  EXPECT_GT(b.bytes_received(), 0u);
  EXPECT_FALSE(env.system.network_view()
                   .bandwidth_bps(env.tb.domain2_hosts[0], env.tb.domain2_hosts[1])
                   .has_value());
}

TEST(VirtuosoTest, WrenMeasuresTcpOverlayTraffic) {
  // With TCP overlay links, the VNET encapsulation itself is the TCP flow
  // Wren mines: "Wren monitors the traffic between VNET daemons".
  ChallengeCluster env({}, vnet::LinkProtocol::kTcp);
  vm::VirtualMachine& a = env.system.create_vm("vm-a", env.tb.domain2_hosts[1]);
  vm::VirtualMachine& b = env.system.create_vm("vm-b", env.tb.domain2_hosts[2]);
  vm::apps::DemandMatrix demands;
  demands[{0, 1}] = 30e6;
  vm::apps::MatrixTrafficApp app(env.sim, {&a, &b}, demands, millis(100));
  app.start();
  env.sim.run_until(seconds(15.0));
  app.stop();
  // The proxy lives in domain 1; daemon-to-proxy-to-daemon TCP flows cross
  // the 10 Mbps inter-domain link. Wren on the sending host must have a
  // bandwidth estimate toward the proxy's host.
  const net::NodeId proxy_host = env.tb.domain1_hosts[0];
  const auto bw =
      env.system.wren_on(env.tb.domain2_hosts[1]).available_bandwidth_bps(proxy_host);
  ASSERT_TRUE(bw.has_value());
  EXPECT_LT(*bw, 20e6);  // bounded by the thin inter-domain link
  EXPECT_GT(*bw, 1e6);
  // And the Proxy's global view received it through the SOAP reports.
  EXPECT_TRUE(
      env.system.network_view().bandwidth_bps(env.tb.domain2_hosts[1], proxy_host).has_value());
}

TEST(VirtuosoTest, CapacityGraphUsesViewWithFallback) {
  SystemConfig config;
  config.default_bandwidth_bps = 42e6;
  ChallengeCluster env(config);
  const vadapt::CapacityGraph g = env.system.capacity_graph();
  EXPECT_EQ(g.size(), 6u);
  EXPECT_DOUBLE_EQ(g.bandwidth(0, 1), 42e6);  // nothing measured yet: fallback
}

TEST(VirtuosoTest, AdaptationMigratesHeavyVmsToFastCluster) {
  // The end-to-end challenge-scenario loop, with the capacity graph taken
  // from ground truth (Wren feeds it in the TCP-star variant; here we
  // exercise VADAPT + migration + overlay reconfiguration).
  SystemConfig config;
  config.annealing.iterations = 2000;
  config.multistart.chains = 1;  // SA+GH: one chain seeded with GH
  ChallengeCluster env(config);

  // The fig10 placement: the heavy trio is split across the domains.
  Fig10Workload workload(env);
  vm::VirtualMachine& v0 = *workload.vms[0];
  vm::VirtualMachine& v1 = *workload.vms[1];
  env.sim.run_until(seconds(8.0));

  // Ground truth stands in for Wren on the UDP overlay; the TCP-star test
  // above validates the Wren path.
  env.feed_truth();
  const AdaptationOutcome outcome = env.system.adapt_now(AdaptationAlgorithm::kMultiStartAnnealing);
  EXPECT_GT(outcome.migrations, 0u);
  workload.app.stop();
  env.sim.run_until(seconds(60.0));  // let migrations complete

  // Heavy VMs all on the fast (domain 2) cluster.
  int heavy_on_fast = 0;
  for (vm::VirtualMachine* machine : {&v0, &v1, workload.vms[2]}) {
    ASSERT_TRUE(machine->attached());
    const auto& d2 = env.tb.domain2_hosts;
    if (std::find(d2.begin(), d2.end(), machine->host()) != d2.end()) ++heavy_on_fast;
  }
  EXPECT_EQ(heavy_on_fast, 3);

  // Traffic still flows after migrations + re-routing.
  std::uint64_t got = 0;
  v1.set_on_message([&](vnet::MacAddress, std::uint64_t bytes, const std::any&) { got += bytes; });
  v0.send_message(v1.mac(), 10'000);
  env.sim.run_until(seconds(62.0));
  EXPECT_EQ(got, 10'000u);
}

TEST(VirtuosoTest, AutoAdaptationTriggersOnTrafficChange) {
  SystemConfig config;
  config.annealing.iterations = 300;
  ChallengeCluster env(config);

  const std::uint64_t mem = 4ull << 20;
  vm::VirtualMachine& v0 = env.system.create_vm("vm-0", env.tb.domain1_hosts[0], mem);
  vm::VirtualMachine& v1 = env.system.create_vm("vm-1", env.tb.domain1_hosts[1], mem);

  env.feed_truth();  // Wren's role on the UDP overlay

  env.system.enable_auto_adaptation(AdaptationAlgorithm::kGreedy, seconds(10.0));
  EXPECT_EQ(env.system.auto_adaptations(), 0u);

  // Heavy VM pair traffic appears: VTTIF detects the change and the system
  // adapts without an explicit call, moving the pair to the fast cluster.
  vm::apps::DemandMatrix demands;
  demands[{0, 1}] = 20e6;
  demands[{1, 0}] = 20e6;
  vm::apps::MatrixTrafficApp app(env.sim, {&v0, &v1}, demands, millis(100));
  app.start();
  env.sim.run_until(seconds(60.0));
  app.stop();
  env.sim.run_until(seconds(90.0));  // migrations complete

  EXPECT_GE(env.system.auto_adaptations(), 1u);
  ASSERT_TRUE(v0.attached());
  ASSERT_TRUE(v1.attached());
  const auto& d2 = env.tb.domain2_hosts;
  EXPECT_NE(std::find(d2.begin(), d2.end(), v0.host()), d2.end());
  EXPECT_NE(std::find(d2.begin(), d2.end(), v1.host()), d2.end());
}

TEST(VirtuosoTest, TracerRecordsAdaptationEvents) {
  SystemConfig config;
  config.annealing.iterations = 100;
  config.daemon_timeout = seconds(2.0);
  config.control_heartbeat_period = millis(500);
  ChallengeCluster env(config);
  VirtuosoSystem& sys = env.system;
  sys.create_vm("vm-0", env.tb.domain1_hosts[0], 4ull << 20);
  sys.create_vm("vm-1", env.tb.domain1_hosts[1], 4ull << 20);
  env.feed_truth();
  const AdaptationOutcome outcome = sys.adapt_now(AdaptationAlgorithm::kGreedy);

  // A killed daemon goes silent, is declared dead, and comes back alive
  // once it reports again (here: one heartbeat, as a restarted daemon
  // would send).
  const net::NodeId victim = env.tb.hosts().back();
  sys.kill_daemon(victim);
  env.sim.run_until(seconds(5.0));
  ASSERT_FALSE(sys.daemon_alive(victim));
  soap::XmlNode heartbeat;
  heartbeat.name = "Heartbeat";
  heartbeat.attributes["reporter"] = std::to_string(victim);
  sys.control_plane().send(victim, heartbeat);
  env.sim.run_until(seconds(6.5));  // one sweep later, before it goes silent again
  ASSERT_TRUE(sys.daemon_alive(victim));

  auto arg = [](const obs::TraceEvent& e, const std::string& key) -> std::string {
    for (const auto& [k, v] : e.args) {
      if (k == key) return v;
    }
    return "<missing>";
  };
  const std::vector<obs::TraceEvent> events = sys.tracer()->events();
  std::size_t adapts = 0;
  std::vector<std::string> victim_events;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "virtuoso.adapt") {
      ++adapts;
      EXPECT_EQ(arg(e, "cost_mbps"), std::to_string(outcome.evaluation.cost / 1e6));
      EXPECT_EQ(arg(e, "feasible"), outcome.evaluation.feasible ? "1" : "0");
    } else if (e.category == "virtuoso" && arg(e, "host") == std::to_string(victim)) {
      EXPECT_EQ(e.phase, obs::EventPhase::kInstant);
      victim_events.push_back(e.name);
    }
  }
  EXPECT_EQ(adapts, 1u);
  EXPECT_EQ(victim_events,
            (std::vector<std::string>{"virtuoso.daemon.killed", "virtuoso.daemon.dead",
                                      "virtuoso.daemon.alive"}));
}

TEST(VirtuosoTest, DisableAutoAdaptationStopsTriggers) {
  ChallengeCluster env;
  vm::VirtualMachine& v0 = env.system.create_vm("vm-0", env.tb.domain1_hosts[0], 4ull << 20);
  vm::VirtualMachine& v1 = env.system.create_vm("vm-1", env.tb.domain1_hosts[1], 4ull << 20);
  env.system.enable_auto_adaptation(AdaptationAlgorithm::kGreedy, seconds(1.0));
  env.system.disable_auto_adaptation();
  vm::apps::DemandMatrix demands;
  demands[{0, 1}] = 10e6;
  vm::apps::MatrixTrafficApp app(env.sim, {&v0, &v1}, demands, millis(100));
  app.start();
  env.sim.run_until(seconds(15.0));
  EXPECT_EQ(env.system.auto_adaptations(), 0u);
}

TEST(VirtuosoTest, AdaptTwiceIsStable) {
  SystemConfig config;
  config.annealing.iterations = 500;
  ChallengeCluster env(config);
  env.system.create_vm("vm-0", env.tb.domain1_hosts[0], 4ull << 20);
  env.system.create_vm("vm-1", env.tb.domain1_hosts[1], 4ull << 20);
  env.feed_truth();
  const AdaptationOutcome first = env.system.adapt_now(AdaptationAlgorithm::kGreedy);
  env.sim.run_until(seconds(30.0));
  const AdaptationOutcome second = env.system.adapt_now(AdaptationAlgorithm::kGreedy);
  // With unchanged inputs, the second pass keeps the VMs where they are.
  EXPECT_EQ(second.migrations, 0u);
  (void)first;
}

TEST(VirtuosoTest, AdaptationEmitsTelemetry) {
  SystemConfig config;
  config.annealing.iterations = 500;
  config.multistart.chains = 2;
  ChallengeCluster env(config);
  vm::VirtualMachine& v0 = env.system.create_vm("vm-0", env.tb.domain1_hosts[0], 4ull << 20);
  vm::VirtualMachine& v1 = env.system.create_vm("vm-1", env.tb.domain2_hosts[0], 4ull << 20);
  vm::apps::DemandMatrix demands;
  demands[{0, 1}] = 5e6;
  vm::apps::MatrixTrafficApp app(env.sim, {&v0, &v1}, demands, millis(100));
  app.start();
  env.sim.run_until(seconds(8.0));
  app.stop();

  env.system.adapt_now(AdaptationAlgorithm::kMultiStartAnnealing);
  env.sim.run_until(seconds(20.0));

  ASSERT_NE(env.system.metrics(), nullptr);
  const obs::MetricsSnapshot snap = env.system.metrics()->snapshot();
  auto count_of = [&snap](std::string_view name) {
    const obs::MetricValue* m = snap.find(name);
    return m != nullptr ? m->count : 0u;
  };
  // The optimizer ran and said so.
  EXPECT_GT(count_of("vadapt.sa.runs"), 0u);
  EXPECT_GT(count_of("vadapt.sa.iterations"), 0u);
  EXPECT_GT(count_of("vadapt.multistart.runs"), 0u);
  EXPECT_GT(count_of("virtuoso.adaptations"), 0u);
  // The surrounding loop left its own footprints.
  EXPECT_GT(count_of("vnet.frames.forwarded"), 0u);
  EXPECT_GT(count_of("vttif.updates.received"), 0u);
  EXPECT_GT(count_of("transport.udp.datagrams"), 0u);
  // Snapshot timestamps come from the virtual clock.
  EXPECT_EQ(snap.taken_at, env.sim.now());
  // The adaptation span landed in the trace.
  ASSERT_NE(env.system.tracer(), nullptr);
  bool saw_adapt_span = false;
  for (const obs::TraceEvent& ev : env.system.tracer()->events()) {
    if (ev.name == "virtuoso.adapt") saw_adapt_span = true;
  }
  EXPECT_TRUE(saw_adapt_span);
}

TEST(VirtuosoTest, TelemetryDisabledLeavesNoRegistry) {
  SystemConfig config;
  config.telemetry = false;
  ChallengeCluster env(config);
  EXPECT_EQ(env.system.metrics(), nullptr);
  EXPECT_EQ(env.system.tracer(), nullptr);
  EXPECT_FALSE(env.system.scope().enabled());
  // The system still works end to end with telemetry off.
  vm::VirtualMachine& a = env.system.create_vm("vm-a", env.tb.domain1_hosts[0]);
  vm::VirtualMachine& b = env.system.create_vm("vm-b", env.tb.domain1_hosts[1]);
  std::uint64_t got = 0;
  b.set_on_message([&](vnet::MacAddress, std::uint64_t bytes, const std::any&) { got += bytes; });
  a.send_message(b.mac(), 10'000);
  env.sim.run_until(seconds(2.0));
  EXPECT_EQ(got, 10'000u);
}

// --- the federated measurement plane (DESIGN.md §5i) -------------------------

// End-to-end over the tiered plane: daemons report into per-region control
// planes, regional proxies export vw.fedsum.v1 summaries over the root
// control plane (crossing the simulated network), and the root view is fed
// exclusively by those summaries — while heartbeats on the regional tier
// keep the Proxy's liveness belief intact and adaptation still runs.
TEST(VirtuosoFederationTest, TieredPlaneFeedsRootViewThroughSummaries) {
  SystemConfig config;
  config.federation.enabled = true;
  config.federation.regions = 2;
  config.federation.export_period = millis(500);
  config.federation.summary_max_pairs = 8;
  config.control_heartbeat_period = seconds(1.0);
  config.daemon_timeout = seconds(5.0);
  config.view_staleness_horizon = seconds(10.0);
  config.default_bandwidth_bps = 10e6;
  ChallengeCluster env(config, vnet::LinkProtocol::kTcp);
  sim::Simulator& sim = env.sim;
  const topo::ChallengeNetwork& tb = env.tb;
  VirtuosoSystem& sys = env.system;

  ASSERT_TRUE(sys.federation_enabled());
  ASSERT_NE(sys.region_map(), nullptr);
  EXPECT_EQ(sys.region_map()->region_count(), 2u);
  ASSERT_NE(sys.regional_proxy(0), nullptr);
  ASSERT_NE(sys.regional_proxy(1), nullptr);
  ASSERT_NE(sys.regional_control(0), nullptr);
  ASSERT_NE(sys.federation_root(), nullptr);

  // TCP overlay traffic gives Wren something to measure on the daemons.
  vm::VirtualMachine& a = sys.create_vm("vm-a", tb.domain2_hosts[1], 8ull << 20);
  vm::VirtualMachine& b = sys.create_vm("vm-b", tb.domain2_hosts[2], 8ull << 20);
  vm::apps::DemandMatrix demands;
  demands[{0, 1}] = 30e6;
  demands[{1, 0}] = 30e6;
  vm::apps::MatrixTrafficApp app(sim, {&a, &b}, demands, millis(100));
  app.start();
  sim.run_until(seconds(15.0));
  app.stop();

  // Summaries crossed the root control plane as real traffic.
  wren::FederationRoot& root = *sys.federation_root();
  EXPECT_GT(root.summaries_applied(), 0u);
  EXPECT_GT(sys.control_plane().delivered_bytes("FederationSummary"), 0u);
  EXPECT_EQ(root.seq_gaps(), 0u);  // no outage: every summary arrived in order

  // The regional tier measured, and the exports populated the root view.
  const std::size_t regional_pairs = sys.regional_proxy(0)->view().entries().size() +
                                     sys.regional_proxy(1)->view().entries().size();
  EXPECT_GT(regional_pairs, 0u);
  EXPECT_FALSE(sys.network_view().entries().empty());
  // Cross-tier TTL contract: root timestamps are regional measurement
  // times, never later than "now".
  for (const auto& [pair, m] : sys.network_view().entries()) {
    EXPECT_LE(m.updated_at, sim.now());
  }

  // Liveness rides the regional tier: nobody was falsely declared dead.
  for (net::NodeId h : tb.hosts()) EXPECT_TRUE(sys.daemon_alive(h));
  EXPECT_EQ(sys.daemons_declared_dead(), 0u);

  // Telemetry: the federation tier registered and moved its instruments.
  ASSERT_NE(sys.metrics(), nullptr);
  EXPECT_GT(sys.metrics()->counter("wren.federation.summaries").value(), 0u);
  EXPECT_GT(sys.metrics()->counter("wren.federation.region.summaries").value(), 0u);

  // Adaptation still works end to end on the federated view.
  const AdaptationOutcome outcome = sys.adapt_now(AdaptationAlgorithm::kGreedy);
  EXPECT_EQ(outcome.hosts.size(), tb.hosts().size());
  sim.run_until(seconds(60.0));  // let migrations complete
  for (const auto& vm : sys.vms()) EXPECT_TRUE(vm->attached());
}

// A control message that parses as XML but whose fields do not decode is
// counted as a parse failure and dropped: it must neither escape the event
// loop nor act on part of its content. Each one is sent from a non-proxy
// daemon, so it crosses the simulated network and arrives via dispatch().
TEST(VirtuosoTest, MalformedControlMessagesAreCountedAndDropped) {
  SystemConfig config;
  config.federation.enabled = true;  // the root plane also takes summaries
  config.daemon_timeout = seconds(2.0);
  ChallengeCluster env(config);
  VirtuosoSystem& sys = env.system;
  // Neither the Proxy nor the region's proxy host (whose summaries keep it
  // alive): with no VM traffic and no heartbeats, this daemon goes silent.
  const net::NodeId host = env.tb.hosts().back();
  ASSERT_NE(host, env.tb.hosts().front());
  ASSERT_NE(host, sys.region_map()->hosts_in(0).front());
  env.sim.run_until(seconds(3.0));
  ASSERT_FALSE(sys.daemon_alive(host));

  const std::string id = std::to_string(host);
  auto msg = [&](std::string name, std::map<std::string, std::string> attrs,
                 std::string child = "", std::map<std::string, std::string> child_attrs = {}) {
    soap::XmlNode m{.name = std::move(name), .attributes = std::move(attrs), .text = {},
                    .children = {}};
    if (!child.empty()) m.add_child(child).attributes = std::move(child_attrs);
    return m;
  };
  soap::XmlNode odd_hex = msg("FederationSummary", {{"reporter", id}, {"region", "0"}});
  odd_hex.add_text_child("summary", "abc");
  vnet::ControlPlane& root = sys.control_plane();
  vnet::ControlPlane& regional = *sys.regional_control(0);
  const std::vector<std::pair<vnet::ControlPlane*, soap::XmlNode>> cases = {
      {&root, msg("Heartbeat", {})},
      {&root, msg("Heartbeat", {{"reporter", id + "abc"}})},
      {&root, msg("Heartbeat", {{"reporter", "4294967296"}})},
      {&root, msg("Heartbeat", {{"reporter", "-" + id}})},
      {&root, msg("VttifUpdate", {{"reporter", id}}, "entry",
                  {{"src", "1"}, {"dst", "2"}, {"bits", "nan"}})},
      {&root, msg("VttifUpdate", {{"reporter", id}}, "entry",
                  {{"src", "1"}, {"dst", "2"}, {"bits", "-5"}})},
      {&root, msg("VttifUpdate", {{"reporter", id}}, "entry", {{"dst", "2"}, {"bits", "5"}})},
      {&root, odd_hex},
      {&root, msg("WrenReport", {{"reporter", id}}, "peer", {{"id", "7x"}, {"bw", "1e6"}})},
      {&regional, msg("Heartbeat", {{"reporter", ""}})},
  };
  SimTime t = env.sim.now();
  for (const auto& [plane, m] : cases) {
    SCOPED_TRACE(soap::to_xml(m));
    const std::uint64_t failures = plane->parse_failures();
    plane->send(host, m);
    t += millis(200);
    EXPECT_NO_THROW(env.sim.run_until(t));
    EXPECT_EQ(plane->parse_failures(), failures + 1);
  }
  // None of them counted as liveness evidence or traffic.
  EXPECT_FALSE(sys.daemon_alive(host));
  EXPECT_EQ(sys.global_vttif().updates_received(), 0u);

  // The plane still works: a well-formed heartbeat resurrects the daemon.
  root.send(host, msg("Heartbeat", {{"reporter", id}}));
  env.sim.run_until(t + millis(1500));
  EXPECT_TRUE(sys.daemon_alive(host));
}

}  // namespace
}  // namespace vw::virtuoso
