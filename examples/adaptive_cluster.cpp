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
//   $ ./examples/adaptive_cluster [options]
//
// Telemetry options (the system-wide metrics registry + event tracer):
//   --metrics-json FILE    export the final metrics snapshot as JSON
//   --metrics-csv FILE     export the final metrics snapshot as CSV
//   --trace FILE           export Chrome trace_event JSON (about:tracing)
//   --events-jsonl FILE    export the trace events as JSONL
//   --no-telemetry         disable the observability subsystem entirely
//   --capture DIR          persist per-host vw.trace.v1 packet-trace shards

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/export.hpp"
#include "virtuoso/challenge.hpp"

using namespace vw;

namespace {

struct Options {
  std::string metrics_json;
  std::string metrics_csv;
  std::string trace;
  std::string events_jsonl;
  std::string capture_dir;
  bool telemetry = true;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << argv[i] << " requires a file argument\n";
      std::exit(2);
    }
    return argv[i + 1];
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-json") == 0) {
      opt.metrics_json = need_value(i++);
    } else if (std::strcmp(argv[i], "--metrics-csv") == 0) {
      opt.metrics_csv = need_value(i++);
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = need_value(i++);
    } else if (std::strcmp(argv[i], "--events-jsonl") == 0) {
      opt.events_jsonl = need_value(i++);
    } else if (std::strcmp(argv[i], "--capture") == 0) {
      opt.capture_dir = need_value(i++);
    } else if (std::strcmp(argv[i], "--no-telemetry") == 0) {
      opt.telemetry = false;
    } else {
      std::cerr << "unknown option: " << argv[i] << "\n";
      std::exit(2);
    }
  }
  return opt;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    std::exit(1);
  }
  out << content;
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

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

    const obs::MetricsSnapshot full = system.metrics()->snapshot();
    if (!opt.metrics_json.empty()) write_file(opt.metrics_json, obs::metrics_json(full));
    if (!opt.metrics_csv.empty()) {
      std::ofstream out(opt.metrics_csv);
      obs::write_csv(out, full);
      std::cout << "wrote " << opt.metrics_csv << "\n";
    }
    if (!opt.trace.empty()) {
      write_file(opt.trace, obs::chrome_trace_json(system.tracer()->events()));
    }
    if (!opt.events_jsonl.empty()) {
      write_file(opt.events_jsonl, obs::events_jsonl(system.tracer()->events()));
    }
  }
  const std::uint64_t captured = system.finish_capture();
  if (!opt.capture_dir.empty()) {
    std::cout << "capture: " << system.overlay().daemon_hosts().size() << " shard(s) in "
              << opt.capture_dir << ", " << captured << " records\n";
  }
  return 0;
}
