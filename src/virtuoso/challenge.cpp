#include "virtuoso/challenge.hpp"

#include <cstdint>
#include <utility>

namespace vw::virtuoso {

namespace {

SystemConfig with_failure_model(SystemConfig config) {
  config.view_staleness_horizon = seconds(10.0);
  config.control_heartbeat_period = seconds(1.0);
  config.daemon_timeout = seconds(5.0);
  config.control.send_timeout = seconds(4.0);
  config.control.backoff_initial = millis(250);
  return config;
}

std::vector<vm::VirtualMachine*> place_fig10_vms(ChallengeCluster& cluster) {
  constexpr std::uint64_t memory_bytes = 8ull << 20;
  const topo::ChallengeNetwork& tb = cluster.tb;
  VirtuosoSystem& system = cluster.system;
  return {&system.create_vm("vm-0", tb.domain1_hosts[0], memory_bytes),
          &system.create_vm("vm-1", tb.domain1_hosts[1], memory_bytes),
          &system.create_vm("vm-2", tb.domain2_hosts[0], memory_bytes),
          &system.create_vm("vm-3", tb.domain2_hosts[1], memory_bytes)};
}

vm::apps::DemandMatrix fig10_demands() {
  vm::apps::DemandMatrix demands;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) demands[{i, j}] = 8e6;
    }
  }
  demands[{0, 3}] = demands[{3, 0}] = 0.5e6;
  return demands;
}

}  // namespace

void feed_view(VirtuosoSystem& system, const std::vector<net::NodeId>& hosts,
               const vadapt::CapacityGraph& truth) {
  wren::GlobalNetworkView& view = system.network_view();
  const SimTime now = system.simulator().now();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = 0; j < hosts.size(); ++j) {
      if (i == j || !system.network().path_up(hosts[i], hosts[j])) continue;
      view.update_bandwidth(hosts[i], hosts[j], truth.bandwidth(i, j), now);
      view.update_latency(hosts[i], hosts[j], truth.latency(i, j), now);
    }
  }
}

ChallengeCluster::ChallengeCluster(const SystemConfig& config, vnet::LinkProtocol overlay)
    : tb(topo::make_challenge_network(sim)), system(sim, *tb.network, config) {
  bool first = true;
  for (net::NodeId h : tb.hosts()) {
    system.add_daemon(h, tb.network->node(h).name, /*is_proxy=*/first);
    first = false;
  }
  system.bootstrap(overlay);
}

void ChallengeCluster::feed_truth() {
  feed_view(system, tb.hosts(), topo::make_challenge_scenario().graph);
}

Fig10Workload::Fig10Workload(ChallengeCluster& cluster)
    : vms(place_fig10_vms(cluster)),
      app(cluster.sim, vms, fig10_demands(), millis(100)) {
  app.start();
}

ChaosScenario::ChaosScenario(SystemConfig config, vnet::LinkProtocol overlay)
    : ChallengeCluster(with_failure_model(std::move(config)), overlay),
      workload(*this),
      feeder(sim, seconds(2.0), [this] { feed_truth(); }),
      faults(sim, *tb.network) {
  system.enable_auto_adaptation(AdaptationAlgorithm::kGreedy, seconds(10.0));
  faults.link_outage(kOutageFrom, kOutageUntil, tb.switch1, tb.switch2);
}

}  // namespace vw::virtuoso
