// chaos_adapt — the fig10 challenge topology under the chaos_cluster fault
// script: a UDP overlay, a heavy 3-VM all-to-all plus a light VM, a
// ground-truth view oracle, greedy auto-adaptation with liveness, staleness
// and reconnect machinery on, and a WAN outage that cuts the first
// adaptation's migrations mid-flight. Mirrors examples/chaos_cluster, whose
// run signature is the golden correctness anchor.

#include <fstream>
#include <sstream>

#include "harness.hpp"
#include "net/fault.hpp"
#include "topo/testbed.hpp"
#include "vm/apps.hpp"

namespace loopbench {

using namespace vw;

namespace {
const SimTime kRunFor = seconds(100.0);
const SimTime kSlice = seconds(1.0);
const SimTime kWarmup = seconds(3.0);
const SimTime kPlanEvery = seconds(2.0);

/// The golden line examples/chaos_cluster prints for `seed`, when one is
/// committed (tests/golden/, read from the checkout root).
std::string golden_signature(std::uint64_t seed) {
  std::ifstream in("tests/golden/chaos_signature_seed" + std::to_string(seed) + ".txt");
  std::string line;
  std::getline(in, line);
  return line;
}
}  // namespace

Iteration run_chaos_adapt(std::uint64_t seed, Ledger& ledger) {
  Iteration it;
  const auto t_topology = Clock::now();
  sim::Simulator sim;
  topo::ChallengeNetwork tb = topo::make_challenge_network(sim);
  it.topology_s = seconds_since(t_topology);

  const auto t_bootstrap = Clock::now();
  virtuoso::SystemConfig config;
  config.seed = seed;
  config.view_staleness_horizon = seconds(10.0);
  config.control_heartbeat_period = seconds(1.0);
  config.daemon_timeout = seconds(5.0);
  config.control.send_timeout = seconds(4.0);
  config.control.backoff_initial = millis(250);
  virtuoso::VirtuosoSystem system(sim, *tb.network, config);
  bool first = true;
  for (net::NodeId h : tb.hosts()) {
    system.add_daemon(h, tb.network->node(h).name, first);
    first = false;
  }
  system.bootstrap(vnet::LinkProtocol::kUdp);
  it.bootstrap_s = seconds_since(t_bootstrap);

  const auto t_vms = Clock::now();
  const std::uint64_t mem = 8ull << 20;
  vm::VirtualMachine& v0 = system.create_vm("vm-0", tb.domain1_hosts[0], mem);
  vm::VirtualMachine& v1 = system.create_vm("vm-1", tb.domain1_hosts[1], mem);
  vm::VirtualMachine& v2 = system.create_vm("vm-2", tb.domain2_hosts[0], mem);
  vm::VirtualMachine& v3 = system.create_vm("vm-3", tb.domain2_hosts[1], mem);
  const std::vector<vm::VirtualMachine*> vms = {&v0, &v1, &v2, &v3};
  vm::apps::DemandMatrix matrix;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) matrix[{i, j}] = 8e6;
    }
  }
  matrix[{0, 3}] = matrix[{3, 0}] = 0.5e6;
  vm::apps::MatrixTrafficApp app(sim, vms, matrix, millis(100));
  app.start();
  it.vms_s = seconds_since(t_vms);
  it.setup_s = it.topology_s + it.bootstrap_s + it.vms_s;

  // The view oracle standing in for Wren-over-UDP: refresh every 2 s, only
  // for pairs whose physical path is up.
  const topo::ChallengeScenario scenario = topo::make_challenge_scenario();
  const auto hosts = tb.hosts();
  std::uint64_t oracle_updates = 0;
  sim::PeriodicTask oracle(sim, seconds(2.0), [&] {
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      for (std::size_t j = 0; j < hosts.size(); ++j) {
        if (i == j || !tb.network->path_up(hosts[i], hosts[j])) continue;
        system.network_view().update_bandwidth(hosts[i], hosts[j],
                                               scenario.graph.bandwidth(i, j), sim.now());
        system.network_view().update_latency(hosts[i], hosts[j], scenario.graph.latency(i, j),
                                             sim.now());
        oracle_updates += 2;
      }
    }
  });
  system.enable_auto_adaptation(virtuoso::AdaptationAlgorithm::kGreedy, seconds(10.0));
  net::FaultPlan faults(sim, *tb.network);
  faults.link_outage(seconds(5.0), seconds(23.0), tb.switch1, tb.switch2);

  // The monitored path crosses the inter-domain link the outage cuts, in
  // the direction that carries other hosts' traffic the oracle ignores.
  const net::NodeId src = tb.domain2_hosts[0];
  const net::NodeId dst = tb.domain1_hosts[0];
  RecordTap tap(*tb.network, tb.domain2_hosts[0], ledger.enabled());
  GroundTruth truth(*tb.network, millis(500));
  truth.watch(src, dst);
  // adapt_ms times the algorithm auto-adaptation runs, over the live view.
  // One ~80 us pass right after the calibration kernel runs from cold caches:
  // over interleaved runs on a busy shared 4-cpu Xeon VM its median spread
  // 0.22 between runs, the mean of four back-to-back passes 0.14.
  ShadowPlanner planner(config, virtuoso::AdaptationAlgorithm::kGreedy, 4);

  ErrorMean err;
  std::uint64_t epoch = 0;
  for (SimTime t = kSlice; t <= kRunFor; t += kSlice) {
    run_timed(sim, t, it, ledger);
    tap.drain();
    if (t < kWarmup) continue;
    const auto estimate = system.network_view().bandwidth_bps(src, dst);
    const auto avail = truth.available_bps(src, dst);
    if (estimate && avail) err.add(*estimate, *avail, truth.capacity_bps(src, dst));
    if ((t - kWarmup) % kPlanEvery != 0) continue;
    time_adaptation(it, ledger, [&] { return planner.plan(system, ledger, epoch++); });
  }
  app.stop();

  const vnet::ControlPlane& control = system.control_plane();
  const vm::MigrationEngine& migration = system.migration();
  std::ostringstream sig;
  sig << "signature: seed=" << seed;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    sig << " vm-" << i << "="
        << (vms[i]->attached() ? tb.network->node(vms[i]->host()).name : "DETACHED");
  }
  sig << " adapt=" << system.auto_adaptations() << " replans=" << system.failure_replans()
      << " failed=" << migration.migrations_failed() << " reconnects=" << control.reconnects();
  it.signature = sig.str();

  it.goodput_mbps = vm_payload_bytes(vms) * 8.0 / it.sim_s / 1e6;
  std::vector<vadapt::Demand> demands;
  for (const auto& [pair, rate] : matrix) demands.push_back({pair.first, pair.second, rate});
  it.plan_cost_mbps = placement_cost_mbps(*tb.network, hosts, vms, demands);
  it.wren_err_pct = err.pct();

  // The chaos_cluster resilience invariants, plus the golden anchor.
  bool attached = true;
  for (const vm::VirtualMachine* machine : vms) attached = attached && machine->attached();
  bool alive = true;
  for (net::NodeId h : hosts) alive = alive && system.daemon_alive(h);
  it.checks.push_back({"chaos.vms_attached", attached});
  it.checks.push_back({"chaos.migration_failed_in_outage", migration.migrations_failed() > 0});
  it.checks.push_back({"chaos.control_disconnected", control.disconnects() > 0});
  it.checks.push_back({"chaos.control_reconnected", control.reconnects() > 0});
  it.checks.push_back({"chaos.daemon_declared_dead", system.daemons_declared_dead() > 0});
  it.checks.push_back({"chaos.replanned", system.failure_replans() > 0});
  it.checks.push_back({"chaos.daemons_alive_after_outage", alive});
  if (seed == 42 || seed == 7) {
    it.checks.push_back({"chaos.golden_signature", it.signature == golden_signature(seed)});
  }

  it.sim["sim.events"] = static_cast<double>(sim.events_executed());
  it.sim["net.packets_delivered"] = static_cast<double>(tb.network->packets_delivered());
  it.sim["net.packets_dropped"] = static_cast<double>(tb.network->packets_dropped());
  it.sim["transport.goodput_ratio"] = goodput_ratio(*tb.network, hosts, vms);
  it.sim["view.oracle_updates"] = static_cast<double>(oracle_updates);
  it.sim["vm.migrations.failed"] = static_cast<double>(migration.migrations_failed());

  if (ledger.enabled()) {
    collect_layers(system, ledger, it);
    tap.replay(ledger, it);
    replay_report_codec(hosts, ledger, it);
  }
  return it;
}

}  // namespace loopbench
