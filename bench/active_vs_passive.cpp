// Free vs. active measurement — the paper's core motivation, quantified.
//
// On the controlled 100 Mbps LAN with stepped CBR cross traffic, compares:
//  * Wren (passive): mines the monitored application's own traffic;
//    injects ZERO probe bytes.
//  * An active SIC prober (pathload-style binary search, the family of
//    tools the paper cites as [11,12]): accurate, but pays for it in
//    injected probe traffic that competes with the very applications it
//    measures.
//
// Output: per cross-traffic level, each tool's estimate, error, and probe
// bytes injected.

#include <iostream>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "transport/sources.hpp"
#include "transport/stack.hpp"
#include "util/csv.hpp"
#include "wren/active.hpp"
#include "wren/analyzer.hpp"

using namespace vw;

namespace {

struct ToolResult {
  double estimate_mbps = 0;
  double probe_mb = 0;
  bool ok = false;
};

struct LanEnv {
  sim::Simulator sim;
  net::Network net{sim};
  net::NodeId sender, receiver, cross, sw;
  std::unique_ptr<transport::TransportStack> stack;

  LanEnv() {
    sender = net.add_host("s");
    receiver = net.add_host("r");
    cross = net.add_host("c");
    sw = net.add_router("sw");
    net::LinkConfig cfg;
    cfg.bits_per_sec = 100e6;
    cfg.prop_delay = micros(50);
    net.add_link(sender, sw, cfg);
    net.add_link(cross, sw, cfg);
    net.add_link(sw, receiver, cfg);
    net.compute_routes();
    stack = std::make_unique<transport::TransportStack>(net);
  }
};

ToolResult run_passive(double cross_rate) {
  LanEnv env;
  wren::OnlineAnalyzer analyzer(env.net, env.sender);
  transport::CbrUdpSource cbr(*env.stack, env.cross, env.receiver, 7000, cross_rate, 1000);
  if (cross_rate > 0) cbr.start();
  std::vector<transport::MessagePhase> phases{
      {.count = 120, .message_bytes = 200'000, .spacing = millis(100), .pause_after = 0}};
  transport::MessageSource app(*env.stack, env.sender, env.receiver, 9000, phases);
  app.start();
  env.sim.run_until(seconds(12.0));
  ToolResult r;
  if (auto bw = analyzer.available_bandwidth_bps(env.receiver)) {
    r.estimate_mbps = *bw / 1e6;
    r.ok = true;
  }
  r.probe_mb = 0;  // free by construction
  return r;
}

ToolResult run_active(double cross_rate) {
  LanEnv env;
  transport::CbrUdpSource cbr(*env.stack, env.cross, env.receiver, 7000, cross_rate, 1000);
  if (cross_rate > 0) cbr.start();
  wren::ActiveProber prober(*env.stack, env.sender, env.receiver, 8800, 100e6);
  ToolResult r;
  prober.start([&](double bps) {
    r.estimate_mbps = bps / 1e6;
    r.ok = true;
  });
  env.sim.run_until(seconds(20.0));
  r.probe_mb = static_cast<double>(prober.bytes_injected()) / 1e6;
  return r;
}

}  // namespace

int main() {
  std::cout << "# Free (Wren, passive) vs active SIC probing on a 100 Mbps LAN\n";
  std::cout << "# Wren mines existing application traffic; the active tool injects probes\n";
  CsvWriter csv(std::cout, {"cross_mbps", "truth_mbps", "wren_mbps", "wren_err", "wren_probe_mb",
                            "active_mbps", "active_err", "active_probe_mb"});
  for (double cross : {0.0, 20e6, 40e6, 60e6}) {
    const double truth = (100e6 - cross) / 1e6;
    const ToolResult passive = run_passive(cross);
    const ToolResult active = run_active(cross);
    csv.row({cross / 1e6, truth, passive.estimate_mbps,
             passive.ok ? (passive.estimate_mbps - truth) / truth : -1, passive.probe_mb,
             active.estimate_mbps, active.ok ? (active.estimate_mbps - truth) / truth : -1,
             active.probe_mb});
  }
  return 0;
}
