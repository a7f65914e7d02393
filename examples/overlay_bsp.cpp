// Overlay BSP: a parallel application in VMs, its topology inferred below
// the OS.
//
// A 6-VM BSP grid application (2x3 neighbor exchange) runs over the VNET
// star on a two-cluster testbed. Nothing inside the VMs is instrumented:
// VTTIF watches the Ethernet frames each VNET daemon captures from its
// local VMs and recovers the application's communication topology, which
// is printed next to the true neighbor structure.
//
//   $ ./examples/overlay_bsp

#include <algorithm>
#include <iomanip>
#include <iostream>

#include "topo/testbed.hpp"
#include "virtuoso/system.hpp"
#include "vm/apps.hpp"

using namespace vw;

int main() {
  sim::Simulator sim;
  topo::ChallengeNetwork tb = topo::make_challenge_network(sim);

  virtuoso::VirtuosoSystem system(sim, *tb.network, virtuoso::SystemConfig{});
  bool first = true;
  for (net::NodeId h : tb.hosts()) {
    system.add_daemon(h, tb.network->node(h).name, first);
    first = false;
  }
  // TCP overlay links: BSP's barrier semantics need reliable delivery (a
  // UDP star would drop synchronized 100 KB bursts at the proxy downlink
  // and deadlock the supersteps).
  system.bootstrap(vnet::LinkProtocol::kTcp);

  // One VM per host; the BSP app exchanges 100 KB with each grid neighbor
  // every superstep, then "computes" for 20 ms.
  std::vector<vm::VirtualMachine*> vms;
  const auto hosts = tb.hosts();
  for (std::size_t i = 0; i < 6; ++i) {
    vms.push_back(&system.create_vm("vm-" + std::to_string(i), hosts[i]));
  }
  const auto neighbors = vm::apps::BspNeighborApp::grid_neighbors(2, 3);
  vm::apps::BspNeighborApp app(sim, vms, neighbors, 100'000, millis(20));
  // Let the star's TCP connections establish before the application starts
  // (VNET runs before the user's VMs boot; frames sent into a half-built
  // star would be dropped, and BSP barriers never recover from loss).
  sim.schedule_at(seconds(0.5), [&app] { app.start(); });

  sim.run_until(seconds(30.0));
  app.stop();

  std::cout << "BSP ran " << app.supersteps_completed() << " supersteps, "
            << app.messages_sent() << " messages\n\n";

  const vttif::Topology topo = system.global_vttif().current_topology();
  std::cout << "VTTIF-inferred topology (" << topo.edges.size() << " edges):\n";
  std::cout << std::fixed << std::setprecision(2);
  for (const vttif::TopologyEdge& e : topo.edges) {
    const std::size_t src = static_cast<std::size_t>(e.src - 1);
    const std::size_t dst = static_cast<std::size_t>(e.dst - 1);
    const auto& nbrs = neighbors[src];
    const bool is_true_edge = std::find(nbrs.begin(), nbrs.end(), dst) != nbrs.end();
    std::cout << "  vm-" << src << " -> vm-" << dst << "  " << std::setw(6)
              << e.rate_bps / 1e6 << " Mb/s  (normalized " << e.normalized << ")"
              << (is_true_edge ? "" : "  [NOT a real neighbor!]") << "\n";
  }

  // Completeness check: every true grid edge should have been recovered.
  std::size_t missing = 0;
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    for (std::size_t j : neighbors[i]) {
      const bool found = std::any_of(topo.edges.begin(), topo.edges.end(),
                                     [&](const vttif::TopologyEdge& e) {
                                       return e.src == i + 1 && e.dst == j + 1;
                                     });
      if (!found) ++missing;
    }
  }
  std::cout << "\ntrue grid edges missing from the inference: " << missing << "\n";
  return 0;
}
