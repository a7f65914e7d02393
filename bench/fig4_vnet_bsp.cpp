// Figure 4 reproduction: Wren observing a neighbor communication pattern
// sending 200 KB messages within VNET.
//
// Setup (paper §2.3): a BSP-style neighbor pattern runs inside VMs on the
// NWU/W&M testbed; the VM traffic is carried by VNET TCP connections, and
// Wren on a W&M host mines exactly that encapsulated traffic. Although the
// application never achieves significant throughput (it is synchronization-
// bound across the WAN), Wren still measures the available bandwidth of the
// wide-area path.
//
// Output: CSV series time_s, app_tput_mbps, wren_availbw_mbps over the
// W&M -> NWU path carrying the VNET star traffic.
//
//   $ fig4_vnet_bsp [--capture DIR]   # DIR gets one vw.trace.v1 shard per host

#include <cstring>
#include <iostream>

#include "topo/testbed.hpp"
#include "util/csv.hpp"
#include "virtuoso/system.hpp"
#include "vm/apps.hpp"

using namespace vw;

int main(int argc, char** argv) {
  std::string capture_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--capture") == 0 && i + 1 < argc) {
      capture_dir = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0] << " [--capture DIR]\n";
      return 2;
    }
  }

  sim::Simulator sim;
  topo::NwuWmTestbed tb = topo::make_nwu_wm_network(sim);

  virtuoso::SystemConfig config;
  config.capture_dir = capture_dir;
  virtuoso::VirtuosoSystem system(sim, *tb.network, config);
  // Proxy at NWU (minet-1), daemons everywhere.
  system.add_daemon(tb.minet1, "minet-1", /*is_proxy=*/true);
  system.add_daemon(tb.minet2, "minet-2");
  system.add_daemon(tb.lr3, "lr3");
  system.add_daemon(tb.lr4, "lr4");
  system.bootstrap(vnet::LinkProtocol::kTcp);  // TCP star: Wren's raw material

  // 4 VMs, one per host, running the BSP neighbor pattern with 200 KB msgs.
  std::vector<vm::VirtualMachine*> vms;
  vms.push_back(&system.create_vm("vm-0", tb.minet1));
  vms.push_back(&system.create_vm("vm-1", tb.minet2));
  vms.push_back(&system.create_vm("vm-2", tb.lr3));
  vms.push_back(&system.create_vm("vm-3", tb.lr4));
  vm::apps::BspNeighborApp app(sim, vms, vm::apps::BspNeighborApp::ring_neighbors(4), 200'000,
                               millis(20));
  // Start after the star's TCP links establish (VNET precedes the VMs).
  sim.schedule_at(seconds(0.5), [&app] { app.start(); });

  wren::OnlineAnalyzer& wm_wren = system.wren_on(tb.lr3);

  // Application throughput: delivered VM bytes, differenced per interval.
  struct Sample {
    double t, app_tput, wren;
  };
  std::vector<Sample> samples;
  std::uint64_t last_bytes = 0;
  sim::PeriodicTask sampler(sim, millis(500), [&] {
    std::uint64_t total = 0;
    for (vm::VirtualMachine* machine : vms) total += machine->bytes_received();
    const double tput_mbps = static_cast<double>(total - last_bytes) * 8.0 / 0.5 / 1e6;
    last_bytes = total;
    const auto bw = wm_wren.available_bandwidth_bps(tb.minet1);
    samples.push_back(Sample{to_seconds(sim.now()), tput_mbps, bw.value_or(0) / 1e6});
  });

  sim.run_until(seconds(60.0));
  sampler.stop();

  // Throughput of the lr3 daemon's encapsulated traffic (what the paper's
  // "application throughput" curve shows for the monitored host).
  const auto& trace = wm_wren.trace();

  std::cout << "# Figure 4: Wren observing a 4-VM BSP neighbor pattern (200 KB messages) in "
               "VNET\n";
  std::cout << "# monitored path: lr3 (W&M) -> minet-1 (NWU proxy), WAN-limited\n";
  CsvWriter csv(std::cout, {"time_s", "app_tput_mbps", "wren_availbw_mbps"});
  for (const Sample& s : samples) csv.row({s.t, s.app_tput, s.wren});

  std::cerr << "fig4: supersteps=" << app.supersteps_completed()
            << " records_captured=" << trace.records_captured()
            << " observations=" << wm_wren.observations_total() << "\n";
  const std::uint64_t captured = system.finish_capture();
  if (!capture_dir.empty()) {
    std::cerr << "fig4 capture: " << system.overlay().daemon_hosts().size() << " shard(s) in "
              << capture_dir << ", " << captured << " records\n";
  }
  return 0;
}
