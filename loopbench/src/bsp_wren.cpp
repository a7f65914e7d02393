// bsp_wren — the fig4 scenario: a 4-VM BSP ring exchanging 200 KB messages
// over a TCP VNET star on the NWU/W&M testbed, Wren online on every daemon,
// no adaptation. The packet datapath, TCP and Wren train+SIC carry the run.

#include "harness.hpp"
#include "topo/testbed.hpp"
#include "vm/apps.hpp"

namespace loopbench {

using namespace vw;

namespace {
constexpr std::uint64_t kMessageBytes = 200'000;
const SimTime kRunFor = seconds(30.0);
const SimTime kWarmup = seconds(8.0);
const SimTime kSlice = seconds(1.0);
}  // namespace

Iteration run_bsp_wren(std::uint64_t seed, Ledger& ledger) {
  Iteration it;
  const auto t_topology = Clock::now();
  sim::Simulator sim;
  topo::NwuWmTestbed tb = topo::make_nwu_wm_network(sim);
  it.topology_s = seconds_since(t_topology);

  const auto t_bootstrap = Clock::now();
  virtuoso::SystemConfig config;
  config.seed = seed;
  virtuoso::VirtuosoSystem system(sim, *tb.network, config);
  system.add_daemon(tb.minet1, "minet-1", /*is_proxy=*/true);
  system.add_daemon(tb.minet2, "minet-2");
  system.add_daemon(tb.lr3, "lr3");
  system.add_daemon(tb.lr4, "lr4");
  system.bootstrap(vnet::LinkProtocol::kTcp);
  it.bootstrap_s = seconds_since(t_bootstrap);

  const auto t_vms = Clock::now();
  std::vector<vm::VirtualMachine*> vms;
  vms.push_back(&system.create_vm("vm-0", tb.minet1));
  vms.push_back(&system.create_vm("vm-1", tb.minet2));
  vms.push_back(&system.create_vm("vm-2", tb.lr3));
  vms.push_back(&system.create_vm("vm-3", tb.lr4));
  const auto neighbors = vm::apps::BspNeighborApp::ring_neighbors(vms.size());
  vm::apps::BspNeighborApp app(sim, vms, neighbors, kMessageBytes, millis(20));
  sim.schedule_at(seconds(0.5), [&app] { app.start(); });
  it.vms_s = seconds_since(t_vms);
  it.setup_s = it.topology_s + it.bootstrap_s + it.vms_s;

  // Ground truth and the benchmark's own observers (outside the timed loop).
  RecordTap tap(*tb.network, tb.lr3, ledger.enabled());
  GroundTruth truth(*tb.network, kSlice);
  truth.watch(tb.lr3, tb.minet1);
  // fig4 never adapts; adapt_ms here is a synthetic probe of the
  // multi-start planner over this system's live view and demands.
  ShadowPlanner planner(config, virtuoso::AdaptationAlgorithm::kMultiStartAnnealing, 1);
  wren::OnlineAnalyzer& wm_wren = system.wren_on(tb.lr3);

  ErrorMean err;
  std::uint64_t epoch = 0;
  for (SimTime t = kSlice; t <= kRunFor; t += kSlice) {
    run_timed(sim, t, it, ledger);
    tap.drain();
    if (t < kWarmup) continue;
    const auto estimate = wm_wren.available_bandwidth_bps(tb.minet1);
    const auto avail = truth.available_bps(tb.lr3, tb.minet1);
    if (estimate && avail) err.add(*estimate, *avail, truth.capacity_bps(tb.lr3, tb.minet1));
    time_adaptation(it, ledger, [&] { return planner.plan(system, ledger, epoch++); });
  }
  app.stop();

  // Outcomes: BSP payload per simulated second, the ring placement scored
  // under ground truth with each neighbor pair's true exchange rate, and
  // Wren's error on the monitored WAN path.
  it.goodput_mbps = vm_payload_bytes(vms) * 8.0 / it.sim_s / 1e6;
  const double pair_rate = static_cast<double>(kMessageBytes) * 8.0 *
                           static_cast<double>(app.supersteps_completed()) / it.sim_s;
  std::vector<vadapt::Demand> demands;
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    for (const std::size_t j : neighbors[i]) demands.push_back({i, j, pair_rate});
  }
  it.plan_cost_mbps = placement_cost_mbps(*tb.network, tb.hosts(), vms, demands);
  it.wren_err_pct = err.pct();

  it.checks.push_back({"bsp.supersteps_complete", app.supersteps_completed() > 0});
  it.checks.push_back({"bsp.wren_estimate_exists",
                       wm_wren.available_bandwidth_bps(tb.minet1).has_value() && err.n > 0});

  it.sim["sim.events"] = static_cast<double>(sim.events_executed());
  it.sim["net.packets_delivered"] = static_cast<double>(tb.network->packets_delivered());
  it.sim["net.packets_dropped"] = static_cast<double>(tb.network->packets_dropped());
  it.sim["transport.goodput_ratio"] = goodput_ratio(*tb.network, tb.hosts(), vms);
  it.sim["bsp.supersteps"] = static_cast<double>(app.supersteps_completed());
  it.sim["wren.observations"] = static_cast<double>(wm_wren.observations_total());

  if (ledger.enabled()) {
    collect_layers(system, ledger, it);
    tap.replay(ledger, it);
    replay_report_codec(tb.hosts(), ledger, it);
  }
  return it;
}

}  // namespace loopbench
