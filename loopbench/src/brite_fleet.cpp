// brite_fleet — a fig11-scale Virtuoso fleet: 128 daemons on the paper's
// 256-node BRITE topology in a 4-region federated plane, a UDP overlay, 16
// VMs running a seeded traffic matrix, ground-truth Wren reports generated
// by the benchmark and shipped encode_wren_report_xml -> regional
// ControlPlane::send (the fig_federation_scale pattern), a seeded
// link-capacity churn schedule, and adapt_now(kMultiStartAnnealing) with
// warm start after every churn step. View writes from reports sit beside
// view reads from planning; the XML and fedsum codecs, federation, VTTIF
// and warm/cold VADAPT carry the run.
//
// VM traffic quiesces for kQuiesce before each adaptation. Re-planning
// removes the previous plan's TCP overlay links (Overlay::reset_to_star),
// and a link removed while frames are still in flight on its connection
// leaves that connection's message callback dangling, so the workload only
// adapts over drained links.

#include <algorithm>
#include <numeric>
#include <set>

#include "harness.hpp"
#include "topo/brite.hpp"
#include "vm/apps.hpp"
#include "wren/federation.hpp"

namespace loopbench {

using namespace vw;

namespace {
constexpr std::size_t kDaemons = 128;
constexpr std::size_t kRegions = 4;
constexpr std::size_t kPoolSize = 32;  ///< candidate hosts, indices 8..39
constexpr std::size_t kVms = 16;
constexpr std::size_t kPeersPerHost = 8;
constexpr std::size_t kChurnLinks = 8;
constexpr std::size_t kEpochs = 12;
const SimTime kReportPeriod = seconds(2.0);
const SimTime kFirstChurn = seconds(6.0);
const SimTime kEpoch = seconds(4.0);
const SimTime kSettle = seconds(10.0);
const SimTime kSlice = seconds(1.0);
const SimTime kQuiesce = seconds(1.0);

/// The fig11 physical topology: fixed, as in the paper.
const topo::BriteTopology& fig11_topology() {
  static const topo::BriteTopology brite = [] {
    topo::BriteParams params;
    params.nodes = 256;
    params.out_degree = 2;
    return topo::BriteTopology(params, RngService(99).stream("fig11.brite"));
  }();
  return brite;
}

/// Ring plus kVms / 2 extra pairs among kVms VMs. The pairs are fixed; the
/// seeded rates jitter around fixed bases, so every seed offers about the
/// same load.
vm::apps::DemandMatrix traffic_matrix(Rng& jitter) {
  Rng shape = RngService(4242).stream("brite_fleet.pairs");
  vm::apps::DemandMatrix m;
  for (std::size_t i = 0; i < kVms; ++i) m[{i, (i + 1) % kVms}] = 0.1e6;
  while (m.size() < kVms + kVms / 2) {
    const auto a = static_cast<std::size_t>(shape.uniform_int(0, kVms - 1));
    const auto b = static_cast<std::size_t>(shape.uniform_int(0, kVms - 1));
    if (a != b && !m.contains({a, b})) m[{a, b}] = 0.05e6;
  }
  for (auto& [pair, rate] : m) rate *= jitter.uniform(0.8, 1.2);
  return m;
}
}  // namespace

Iteration run_brite_fleet(std::uint64_t seed, Ledger& ledger) {
  Iteration it;
  const RngService rngs(seed);
  const topo::BriteTopology& brite = fig11_topology();

  const auto t_topology = Clock::now();
  sim::Simulator sim;
  // Fleet placement is fixed like the topology; the seed drives the traffic
  // rates and the churn depths.
  Rng pick = RngService(4242).stream("brite_fleet.hosts");
  const topo::BriteNetwork bn = topo::make_brite_network(sim, brite, kDaemons, pick);
  net::Network& network = *bn.network;
  it.topology_s = seconds_since(t_topology);

  const auto t_bootstrap = Clock::now();
  virtuoso::SystemConfig config;
  config.seed = seed;
  config.view_staleness_horizon = seconds(30.0);
  config.default_bandwidth_bps = 20e6;
  config.federation.enabled = true;
  config.federation.regions = kRegions;
  config.federation.export_period = kReportPeriod;
  config.federation.summary_max_pairs = (kPoolSize / kRegions) * (kPoolSize - 1) + 64;
  config.warm_start.enabled = true;
  config.multistart.threads = kPlannerThreads;
  virtuoso::VirtuosoSystem system(sim, network, config);
  for (std::size_t i = 0; i < bn.hosts.size(); ++i) {
    system.add_daemon(bn.hosts[i], "h" + std::to_string(i), i == 0);
  }
  system.bootstrap(vnet::LinkProtocol::kUdp);
  it.bootstrap_s = seconds_since(t_bootstrap);

  const auto t_vms = Clock::now();
  std::vector<std::size_t> pool(kPoolSize);
  std::iota(pool.begin(), pool.end(), std::size_t{8});
  std::shuffle(pool.begin(), pool.end(), RngService(4242).stream("brite_fleet.placement").engine());
  std::vector<vm::VirtualMachine*> vms;
  for (std::size_t v = 0; v < kVms; ++v) {
    vms.push_back(&system.create_vm("vm-" + std::to_string(v), bn.hosts[pool[v]], 8ull << 20));
  }
  Rng traffic = rngs.stream("brite_fleet.traffic");
  const vm::apps::DemandMatrix matrix = traffic_matrix(traffic);
  vm::apps::MatrixTrafficApp app(sim, vms, matrix, millis(100));
  app.start();
  it.vms_s = seconds_since(t_vms);
  it.setup_s = it.topology_s + it.bootstrap_s + it.vms_s;

  // Report streams: every daemon reports k spread-out peers, pool hosts
  // every pool peer, with the live routed-path capacity and delay.
  std::vector<std::vector<std::size_t>> peers(kDaemons);
  for (std::size_t i = 0; i < kDaemons; ++i) {
    for (std::size_t p = 1; p <= kPeersPerHost; ++p) peers[i].push_back((i + p * 37) % kDaemons);
  }
  for (std::size_t a = 8; a < 8 + kPoolSize; ++a) {
    for (std::size_t b = 8; b < 8 + kPoolSize; ++b) {
      if (a != b) peers[a].push_back(b);
    }
  }
  sim::PeriodicTask reporter(sim, kReportPeriod, [&] {
    for (std::size_t i = 0; i < kDaemons; ++i) {
      std::vector<wren::PathReading> readings;
      readings.reserve(peers[i].size());
      for (const std::size_t j : peers[i]) {
        readings.push_back({bn.hosts[j], network.path_bottleneck_bps(bn.hosts[i], bn.hosts[j]),
                            to_seconds(network.path_prop_delay(bn.hosts[i], bn.hosts[j]))});
      }
      ledger.span("soap", [&] {
        const soap::XmlNode msg = wren::encode_wren_report_xml(bn.hosts[i], readings);
        const wren::RegionId r = system.region_map()->region_of(bn.hosts[i]);
        system.regional_control(r)->send(bn.hosts[i], msg);
      });
    }
  });

  RecordTap tap(network, bn.hosts[8], ledger.enabled());

  // Wren's error is watched on every ordered pool pair, and churn strikes
  // the router links those pairs route over, so every seed perturbs the
  // paths the planner can use rather than links nobody crosses.
  std::vector<std::pair<net::NodeId, net::NodeId>> monitored;
  GroundTruth truth(network, millis(500));
  std::set<std::pair<net::NodeId, net::NodeId>> churnable;
  for (std::size_t a = 0; a < kPoolSize; ++a) {
    for (std::size_t b = 0; b < kPoolSize; ++b) {
      if (a == b) continue;
      const net::NodeId from = bn.hosts[pool[a]];
      const net::NodeId to = bn.hosts[pool[b]];
      monitored.push_back({from, to});
      truth.watch(from, to);
      for (net::NodeId at = network.next_hop(from, to); at != to;) {
        const net::NodeId next = network.next_hop(at, to);
        if (next != to) churnable.insert({std::min(at, next), std::max(at, next)});
        at = next;
      }
    }
  }
  const std::vector<std::pair<net::NodeId, net::NodeId>> links(churnable.begin(), churnable.end());
  std::vector<double> base_bps;
  for (const auto& [u, v] : links) base_bps.push_back(network.channel(u, v).capacity_bps());

  // Which links churn is fixed; which of a fixed set of depths each one
  // drops to comes from the seed, so every step removes the same share of
  // capacity in total and seeds differ only in where it goes.
  Rng churn_links = RngService(4242).stream("brite_fleet.churn_links");
  Rng churn = rngs.stream("brite_fleet.churn");
  std::vector<double> depths(kChurnLinks);
  for (std::size_t k = 0; k < kChurnLinks; ++k) {
    depths[k] = 0.5 + 0.5 * static_cast<double>(k) / static_cast<double>(kChurnLinks);
  }
  ErrorMean err;
  SimTime t = 0;
  const auto advance = [&](SimTime until) {
    while (t < until) {
      t = std::min(until, t + kSlice);
      run_timed(sim, t, it, ledger);
      tap.drain();
      if (t < kFirstChurn) continue;
      for (const auto& [a, b] : monitored) {
        const auto estimate = system.network_view().bandwidth_bps(a, b);
        const auto avail = truth.available_bps(a, b);
        if (estimate && avail) err.add(*estimate, *avail, truth.capacity_bps(a, b));
      }
    }
  };
  virtuoso::AdaptationOutcome last;
  double plan_cost_sum = 0;
  bool feasible = true;
  bool complete = true;  // every outcome maps all kVms onto distinct hosts
  for (std::size_t e = 0; e < kEpochs; ++e) {
    advance(kFirstChurn + static_cast<SimTime>(e) * kEpoch);
    std::shuffle(depths.begin(), depths.end(), churn.engine());
    for (std::size_t k = 0; k < kChurnLinks; ++k) {
      const auto pick = static_cast<std::size_t>(
          churn_links.uniform_int(0, static_cast<std::int64_t>(links.size()) - 1));
      const double bps = base_bps[pick] * depths[k];
      network.channel(links[pick].first, links[pick].second).set_capacity_bps(bps);
      network.channel(links[pick].second, links[pick].first).set_capacity_bps(bps);
    }
    const SimTime adapt_at = kFirstChurn + static_cast<SimTime>(e + 1) * kEpoch;
    advance(adapt_at - kQuiesce);
    app.stop();
    advance(adapt_at);
    time_planner_inputs(system, ledger, it);
    const std::uint64_t warm_before = system.warm_starts();
    double ms = 0;
    time_adaptation(it, ledger, [&]() -> std::optional<double> {
      const auto t0 = Clock::now();
      last = ledger.span("vadapt", [&] {
        return system.adapt_now(virtuoso::AdaptationAlgorithm::kMultiStartAnnealing);
      });
      ms = seconds_since(t0) * 1e3;
      return ms;
    });
    // Each adaptation's plan re-scored under the ground truth it was made in.
    plan_cost_sum += vadapt::evaluate(truth_graph(network, last.hosts), last.demands,
                                      last.configuration).cost / 1e6;
    feasible = feasible && last.evaluation.feasible;
    complete = complete && !last.hosts.empty() && last.configuration.mapping.size() == kVms &&
               vadapt::valid_mapping(last.configuration.mapping, last.hosts.size());
    if (ledger.enabled()) {
      ledger.add(system.warm_starts() > warm_before ? "vadapt.warm" : "vadapt.cold", ms / 1e3);
    }
    app.start();
  }
  advance(t + kSettle);
  app.stop();
  reporter.stop();

  it.goodput_mbps = vm_payload_bytes(vms) * 8.0 / it.sim_s / 1e6;
  it.plan_cost_mbps = plan_cost_sum / static_cast<double>(kEpochs);
  it.wren_err_pct = err.pct();

  bool attached = true;
  for (const vm::VirtualMachine* machine : vms) attached = attached && machine->attached();
  it.checks.push_back({"brite.vms_attached", attached});
  it.checks.push_back({"brite.plans_feasible", feasible});
  it.checks.push_back({"brite.plans_map_every_vm", complete});

  it.sim["sim.events"] = static_cast<double>(sim.events_executed());
  it.sim["net.packets_delivered"] = static_cast<double>(network.packets_delivered());
  it.sim["net.packets_dropped"] = static_cast<double>(network.packets_dropped());
  it.sim["transport.goodput_ratio"] = goodput_ratio(network, bn.hosts, vms);
  it.sim["vadapt.warm_starts"] = static_cast<double>(system.warm_starts());
  it.sim["vadapt.cold_starts"] = static_cast<double>(system.cold_starts());
  it.sim["vm.migrations.started"] = static_cast<double>(system.migration().migrations_started());

  if (ledger.enabled()) {
    collect_layers(system, ledger, it);
    it.layer["vadapt.warm_ms"] = ledger.mean_seconds("vadapt.warm") * 1e3;
    it.layer["vadapt.cold_ms"] = ledger.mean_seconds("vadapt.cold") * 1e3;
    it.layer["soap.report_encode_ns"] = ledger.mean_seconds("soap") * 1e9;
    tap.replay(ledger, it);
    replay_report_codec(bn.hosts, ledger, it);
    replay_fedsum_codec(system.network_view(), ledger, it);
  }
  return it;
}

}  // namespace loopbench
