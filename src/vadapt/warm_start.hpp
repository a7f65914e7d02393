#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "obs/scope.hpp"
#include "util/rng.hpp"
#include "vadapt/incremental.hpp"
#include "vadapt/problem.hpp"
#include "wren/delta.hpp"

// Continuous warm-start VADAPT (DESIGN.md §5j).
//
// The from-scratch pipeline re-derives everything per adaptation: a fresh
// CapacityGraph, a fresh IncrementalEvaluator (O(n²) residual prime), and a
// full multi-start SA run over the whole problem. With failure re-plans and
// federation demand refreshes firing adaptations continuously, that batch
// cost is the system's slowest tier. WarmStartOptimizer instead keeps the
// incumbent configuration and its evaluator residual state alive across
// adaptations and consumes a wren::ViewDelta:
//
//   1. patch  — apply the delta's changed capacities/latencies to the live
//      graph and refresh exactly the touched edges (O(delta · users), not
//      O(n²)); apply VTTIF rate drift with the same edge-scoped rescore.
//   2. select — collect the demand neighborhood the delta touched: demands
//      routed over a patched edge, demands whose rate changed, and (for
//      capacity increases) the best-gain demands whose bottleneck the wider
//      edge could lift, capped at 64 demands.
//   3. burst  — a short path-only SA burst restricted to those demands
//      (same perturbation moves as the full annealer, no mapping moves, so
//      no VM migrations are proposed by a warm pass). Reverts are sparse:
//      only paths the burst actually changed are tracked and restored.
//
// Contracts:
//   - Empty delta + unchanged rates => adapt() returns without consuming
//     randomness and the incumbent is bit-identical to what was adopted.
//   - The burst is monotone versus the patched incumbent: the committed
//     configuration never scores below the incumbent evaluated under the
//     patched graph (the burst's best starts there).
//   - The from-scratch solver remains the differential oracle: tests
//     enforce warm cost >= (1 - tolerance) * cold cost on every scenario.

namespace vw::vadapt {

/// Problems smaller than this many VMs always re-solve from scratch — a
/// full multi-start is already cheap there, and it keeps small golden
/// scenarios (chaos suite) on the exact cold decision sequence.
inline constexpr std::size_t kWarmMinVms = 16;
/// Burst length: 200 iterations per target demand, clamped to
/// [kMinBurstIterations, kMaxBurstIterations].
inline constexpr std::size_t kMinBurstIterations = 500;
inline constexpr std::size_t kMaxBurstIterations = 20000;

struct WarmStartParams {
  /// Master switch (SystemConfig::warm_start.enabled). Off by default: the
  /// cold path must stay byte-identical for existing golden scenarios.
  bool enabled = false;
  /// Telemetry (vadapt.warm.* counters/histograms); disabled by default.
  obs::Scope obs;
};

/// What one warm adapt() actually did (telemetry + test introspection).
struct WarmAdaptStats {
  std::size_t delta_pairs = 0;      ///< directed pairs in the consumed delta
  std::size_t patched_edges = 0;    ///< graph edges patched + refreshed
  std::size_t rate_changes = 0;     ///< demands whose VTTIF rate drifted
  std::size_t target_demands = 0;   ///< neighborhood size the burst covered
  std::size_t burst_iterations = 0; ///< SA iterations the burst ran
  double cost_before = 0;           ///< incumbent cost after patch, before burst
  double cost_after = 0;            ///< committed cost
};

class WarmStartOptimizer {
 public:
  explicit WarmStartOptimizer(WarmStartParams params = {});

  /// Adopt a freshly solved problem as the incumbent (called after every
  /// cold solve). Copies the graph and demands; O(n²) — the once-per-cold
  /// cost that subsequent warm adapts amortize away.
  void adopt(const CapacityGraph& graph, std::vector<Demand> demands, std::size_t n_vms,
             Configuration conf, const Objective& objective = {});

  bool has_incumbent() const { return eval_ != nullptr; }

  /// Whether the incumbent still describes this problem: identical host
  /// list (order included), same VM count, and demand list with identical
  /// endpoints per index (rates may drift — adapt() patches those).
  bool compatible(const std::vector<net::NodeId>& hosts, const std::vector<Demand>& demands,
                  std::size_t n_vms) const;

  /// Whether the delta is small enough to warm-start over (at most a
  /// quarter of the directed host-pair space).
  bool delta_acceptable(const wren::ViewDelta& delta) const;

  /// Consume a view delta + the current demand list (same endpoints as the
  /// incumbent's): patch, select, burst, commit. Requires has_incumbent().
  /// An empty delta with unchanged rates returns immediately without
  /// consuming randomness, leaving the incumbent bit-identical.
  WarmAdaptStats adapt(const wren::ViewDelta& delta, const std::vector<Demand>& demands,
                       Rng rng);

  const CapacityGraph& graph() const { return *graph_; }
  const Configuration& incumbent() const { return eval_->configuration(); }
  const Evaluation& evaluation() const { return eval_->evaluation(); }
  const std::vector<Demand>& demands() const { return eval_->demands(); }

  WarmStartParams& params() { return params_; }

 private:
  struct EdgePatch {
    HostIndex u = 0;
    HostIndex v = 0;
    double old_bandwidth = 0;
    double new_bandwidth = 0;
  };

  /// Apply the delta to graph_ and refresh touched evaluator edges.
  void apply_delta(const wren::ViewDelta& delta, std::vector<EdgePatch>& patches,
                   WarmAdaptStats& stats);

  /// Pick the burst's demand neighborhood for the given patches.
  std::vector<std::uint32_t> select_targets(const std::vector<EdgePatch>& patches,
                                            const std::vector<std::uint32_t>& must_include);

  /// Path-only SA burst over `targets`; returns iterations executed.
  /// Commits the best configuration seen (never below the starting point).
  std::size_t run_burst(const std::vector<std::uint32_t>& targets, std::size_t iterations,
                        Rng& rng);

  WarmStartParams params_;
  std::unique_ptr<CapacityGraph> graph_;  ///< stable address for eval_
  std::unique_ptr<IncrementalEvaluator> eval_;
  std::size_t n_vms_ = 0;
};

}  // namespace vw::vadapt
