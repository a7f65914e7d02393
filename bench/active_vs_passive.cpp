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

#include "topo/lan_measurement.hpp"
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

ToolResult run_passive(double cross_rate) {
  topo::LanMeasurement run(cross_rate);
  run.send({{.count = 120, .message_bytes = 200'000, .spacing = millis(100)}});
  run.sim.run_until(seconds(12.0));
  ToolResult r;
  if (auto bw = run.analyzer.available_bandwidth_bps(run.tb.receiver)) {
    r.estimate_mbps = *bw / 1e6;
    r.ok = true;
  }
  r.probe_mb = 0;  // free by construction
  return r;
}

ToolResult run_active(double cross_rate) {
  topo::LanMeasurement run(cross_rate);
  wren::ActiveProber prober(run.stack, run.tb.sender, run.tb.receiver, 8800, 100e6);
  ToolResult r;
  prober.start([&](double bps) {
    r.estimate_mbps = bps / 1e6;
    r.ok = true;
  });
  run.sim.run_until(seconds(20.0));
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
