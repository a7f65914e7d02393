// Adaptive cluster: the paper's full loop on the challenge scenario.
//
// Four VMs start badly placed across two clusters (a 100 Mbps domain and a
// 1000 Mbps domain joined by a 10 Mbps link). The heavy all-to-all trio is
// split across the thin inter-domain link. Virtuoso:
//   1. carries the VM traffic over the VNET star,
//   2. infers the application topology with VTTIF,
//   3. measures the physical paths with Wren (fed here from ground truth
//      for the UDP overlay; see fig4 for the Wren-over-TCP pipeline),
//   4. runs VADAPT (greedy heuristic + multi-start simulated annealing),
//   5. migrates the VMs and re-routes the overlay,
// and the application's delivered throughput improves.
//
//   $ ./examples/adaptive_cluster [--metrics-json FILE] [--trace FILE]
//     [--events-jsonl FILE] [--no-telemetry] [--capture DIR]
//
// The telemetry options (the system-wide metrics registry + event tracer)
// are described in telemetry_cli.hpp.

#include <iostream>

#include "telemetry_cli.hpp"
#include "virtuoso/challenge.hpp"

using namespace vw;

int main(int argc, char** argv) {
  examples::TelemetryOptions opt;
  for (int i = 1; i < argc; ++i) {
    if (!opt.parse(argc, argv, i)) examples::unknown_option(argv[i]);
  }

  virtuoso::SystemConfig config;
  config.annealing.iterations = 3000;
  config.multistart.chains = 4;  // chain 0 seeded with GH, 3 random restarts
  config.telemetry = opt.telemetry;
  config.capture_dir = opt.capture_dir;  // binary trace shards, one per host
  virtuoso::ChallengeCluster cluster(config);
  sim::Simulator& sim = cluster.sim;
  virtuoso::VirtuosoSystem& system = cluster.system;

  // Bad initial placement: the heavy trio (VMs 0-2) straddles the domains.
  const virtuoso::Fig10Workload workload(cluster);

  auto delivered = [&] {
    std::uint64_t bytes = 0;
    for (const vm::VirtualMachine* machine : workload.vms) bytes += machine->bytes_received();
    return bytes;
  };

  // Phase 1: observe the badly placed application.
  sim.run_until(seconds(20.0));
  const std::uint64_t before_bytes = delivered();
  const double before_mbps = static_cast<double>(before_bytes) * 8.0 / 20.0 / 1e6;
  std::cout << "before adaptation: " << before_mbps << " Mb/s delivered\n";
  std::cout << "VTTIF sees " << system.current_demands().size() << " VM flows\n";

  // Feed the Proxy's network view (Wren's role; ground truth here).
  cluster.feed_truth();

  // Phase 2: adapt (multi-start SA, chain 0 seeded with the greedy
  // heuristic) and let the migrations play out.
  const virtuoso::AdaptationOutcome outcome =
      system.adapt_now(virtuoso::AdaptationAlgorithm::kMultiStartAnnealing);
  std::cout << "adaptation: CEF=" << outcome.evaluation.cost / 1e6 << " Mb/s, "
            << outcome.migrations << " migrations issued\n";
  sim.run_until(seconds(45.0));  // migrations complete; traffic resumes

  // Phase 3: measure the adapted placement over a fresh window.
  const std::uint64_t mid_bytes = delivered();
  sim.run_until(seconds(65.0));
  const double after_mbps = static_cast<double>(delivered() - mid_bytes) * 8.0 / 20.0 / 1e6;

  std::cout << "after adaptation:  " << after_mbps << " Mb/s delivered\n";
  for (const vm::VirtualMachine* machine : workload.vms) {
    std::cout << "  " << machine->name() << " on "
              << cluster.tb.network->node(machine->host()).name << "\n";
  }
  std::cout << "speedup: " << after_mbps / before_mbps << "x\n";

  // Telemetry report: print the adaptation-relevant instruments, then
  // export whatever was requested.
  if (opt.telemetry) {
    std::cout << "\n";
    obs::write_text_table(std::cout, system.metrics()->snapshot("vadapt"));
    obs::write_text_table(std::cout, system.metrics()->snapshot("virtuoso"));
  }
  examples::export_telemetry(opt, system);
  const std::uint64_t captured = system.finish_capture();
  if (!opt.capture_dir.empty()) {
    std::cout << "capture: " << system.overlay().daemon_hosts().size() << " shard(s) in "
              << opt.capture_dir << ", " << captured << " records\n";
  }
  return 0;
}
