#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/scope.hpp"
#include "util/rng.hpp"
#include "vadapt/problem.hpp"

// Simulated annealing (paper §4.3). State = a configuration; the
// perturbation function modifies ONE randomly chosen forwarding path per
// iteration (insert / delete / swap a vertex, probability 1/3 each) and
// occasionally perturbs the VM mapping itself (which resets the paths);
// acceptance follows the standard exp(dE/T) rule with geometric cooling.
//
// Evaluation is incremental: a single-path move applies an O(path-length)
// delta through IncrementalEvaluator instead of rebuilding the O(n²)
// residual matrix; only a mapping perturbation pays a full rescore. Setting
// AnnealingParams::full_rescore re-derives the CEF from scratch every
// iteration (the pre-incremental behavior). Both modes draw the same random
// sequence and the delta evaluation is bit-exact against `evaluate`, so the
// two produce bit-identical optimizer decisions — the differential tests
// rely on this.
//
// Variants:
//   SA      — random initial configuration
//   SA+GH   — seeded with the greedy heuristic's configuration
//   SA+GH+B — additionally reports the best configuration seen so far
// (the best-so-far is always tracked; the harness decides what to plot).

namespace vw::vadapt {

struct AnnealingParams {
  std::size_t iterations = 5000;
  /// Geometric temperature decay per iteration. The start temperature
  /// auto-scales to max(0.1 * |initial cost|, 1).
  double cooling = 0.999;
  double mapping_perturb_prob = 0.05;
  std::size_t trace_stride = 1;      ///< record every k-th iteration; must be >= 1
  /// Reference mode: full evaluate() every iteration instead of incremental
  /// deltas. Decisions are bit-identical to the incremental mode; used by
  /// differential tests and the BENCH_vadapt micro benches.
  bool full_rescore = false;
  /// Telemetry (vadapt.sa.* counters + a run span). Disabled by default;
  /// move statistics accumulate in the result and flush once per run, so
  /// enabling it cannot perturb optimizer decisions or timing.
  obs::Scope obs;
};

struct AnnealingTracePoint {
  std::size_t iteration = 0;
  double current_cost = 0;  ///< objective value of the state at this iteration
  double best_cost = 0;     ///< best objective value seen so far (+B curve)
};

struct AnnealingResult {
  Configuration best;
  Evaluation best_evaluation;
  Configuration final_state;
  std::vector<AnnealingTracePoint> trace;
  std::uint64_t accepted = 0;       ///< moves taken
  std::uint64_t rejected = 0;       ///< moves reverted
  std::uint64_t mapping_moves = 0;  ///< moves that perturbed the VM mapping
};

/// Flushes one finished run's telemetry into `scope`: the vadapt.sa.*
/// counters, the best-cost histogram, and a "vadapt.sa" span from `start`
/// to now carrying the iteration and accepted counts. simulated_annealing
/// calls it for its own run; multi_start_annealing runs its chains with
/// telemetry off and calls it per chain in chain-index order.
void record_annealing_run(const obs::Scope& scope, const AnnealingParams& params,
                          const AnnealingResult& result, SimTime start);

/// A uniformly random valid configuration (injective mapping, direct paths).
Configuration random_configuration(const CapacityGraph& graph, const std::vector<Demand>& demands,
                                   std::size_t n_vms, Rng& rng);

AnnealingResult simulated_annealing(const CapacityGraph& graph,
                                    const std::vector<Demand>& demands, std::size_t n_vms,
                                    const Objective& objective, const AnnealingParams& params,
                                    Rng rng,
                                    std::optional<Configuration> initial = std::nullopt);

}  // namespace vw::vadapt
