// Ablation: which design choices make Wren's free measurement accurate?
//
// Sweeps, on the controlled 100 Mbps LAN with known cross traffic:
//  * minimum train length (short trains = more samples, noisier decisions)
//  * spacing tolerance (how aggressively runs are glued into maximal trains)
//  * fusion window length
//  * per-segment vs delayed-ACK receivers (feedback density)
//
// For each variant the harness reports the relative error of the converged
// estimate against the true residual bandwidth at three cross-traffic
// levels. Regenerates the evidence behind DESIGN.md's parameter choices.

#include <iomanip>
#include <iostream>

#include "topo/lan_measurement.hpp"
#include "util/csv.hpp"
#include "wren/analyzer.hpp"

using namespace vw;

namespace {

struct CaseResult {
  double estimate_mbps = 0;
  double truth_mbps = 0;
  bool has_estimate = false;
};

CaseResult run_case(double cross_bps, const wren::WrenParams& params, bool delayed_ack) {
  topo::LanMeasurement run(cross_bps, params);
  run.stack.set_delayed_ack(delayed_ack);
  run.send({{.count = 150, .message_bytes = 200'000, .spacing = millis(100)}});
  run.sim.run_until(seconds(12.0));

  CaseResult result;
  result.truth_mbps = run.truth_bps() / 1e6;
  if (auto bw = run.analyzer.available_bandwidth_bps(run.tb.receiver)) {
    result.estimate_mbps = *bw / 1e6;
    result.has_estimate = true;
  }
  return result;
}

void emit(CsvWriter& csv, const std::string& variant, const wren::WrenParams& params,
          bool delayed_ack) {
  for (double cross : {0.0, 25e6, 50e6}) {
    const CaseResult r = run_case(cross, params, delayed_ack);
    const double rel_err =
        r.has_estimate ? (r.estimate_mbps - r.truth_mbps) / r.truth_mbps : -1.0;
    csv.text_row({variant, std::to_string(cross / 1e6), std::to_string(r.truth_mbps),
                  r.has_estimate ? std::to_string(r.estimate_mbps) : "none",
                  std::to_string(rel_err)});
  }
}

}  // namespace

int main() {
  std::cout << "# Wren ablation: estimate accuracy vs design parameters (100 Mbps LAN)\n";
  CsvWriter csv(std::cout,
                {"variant", "cross_mbps", "truth_mbps", "estimate_mbps", "rel_error"});

  emit(csv, "baseline", wren::WrenParams{}, false);

  for (std::size_t min_len : {3u, 8u, 16u}) {
    wren::WrenParams p;
    p.train.min_length = min_len;
    emit(csv, "min_train_len=" + std::to_string(min_len), p, false);
  }

  for (double tol : {1.5, 2.0, 8.0}) {
    wren::WrenParams p;
    p.train.spacing_tolerance = tol;
    emit(csv, "spacing_tol=" + std::to_string(tol), p, false);
  }

  for (std::size_t window : {5u, 50u}) {
    wren::WrenParams p;
    p.sic.window_observations = window;
    emit(csv, "fusion_window=" + std::to_string(window), p, false);
  }

  emit(csv, "delayed_ack_receiver", wren::WrenParams{}, true);

  return 0;
}
