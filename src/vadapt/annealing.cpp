#include "vadapt/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>

#include "util/check.hpp"
#include "vadapt/incremental.hpp"
#include "vadapt/perturb.hpp"

namespace vw::vadapt {

namespace {

// The perturbation moves themselves live in vadapt/perturb.hpp, shared
// bit-for-bit with the warm-start bursts.
using detail::PerturbScratch;
using detail::direct_path;
using detail::perturb_delete;
using detail::perturb_insert;
using detail::perturb_mapping;
using detail::perturb_swap;
using detail::reset_paths_direct;

/// Reference evaluation backend with the same surface as
/// IncrementalEvaluator: every move pays a from-scratch evaluate() (the
/// pre-incremental cost structure). Because the delta evaluation is
/// bit-exact, an annealer driven by either backend makes identical
/// decisions from the same random stream.
class FullRescorer {
 public:
  FullRescorer(const CapacityGraph& graph, const std::vector<Demand>& demands,
               const Objective& objective)
      : graph_(&graph), demands_(&demands), objective_(objective) {}

  void reset(Configuration conf) {
    conf_ = std::move(conf);
    eval_ = evaluate(*graph_, *demands_, conf_, objective_);
  }

  void set_path(std::size_t d, const Path& path) {
    conf_.paths[d].assign(path.begin(), path.end());
    eval_ = evaluate(*graph_, *demands_, conf_, objective_);
  }

  const Configuration& configuration() const { return conf_; }
  const Evaluation& evaluation() const { return eval_; }

 private:
  const CapacityGraph* graph_;
  const std::vector<Demand>* demands_;
  Objective objective_;
  Configuration conf_;
  Evaluation eval_;
};

/// The annealing loop, parameterized over the evaluation backend. Both
/// backends consume the identical random sequence: the only divergence
/// point would be a differing cost, which the bit-exactness contract of
/// IncrementalEvaluator rules out.
template <typename Evaluator>
AnnealingResult anneal_loop(const CapacityGraph& graph, const std::vector<Demand>& demands,
                            const AnnealingParams& params, Rng& rng, Configuration start,
                            Evaluator& ev) {
  const std::size_t n_hosts = graph.size();
  const std::size_t n_demands = demands.size();

  ev.reset(std::move(start));
  Evaluation current_eval = ev.evaluation();

  AnnealingResult result;
  result.best = ev.configuration();
  result.best_evaluation = current_eval;

  double temperature = std::max(std::abs(current_eval.cost) * 0.1, 1.0);

  PerturbScratch scratch;
  Path old_path;                  // revert buffer for single-path moves
  Path candidate_path;            // perturbed path under consideration
  Configuration previous_conf;    // revert buffer for mapping moves

  // Move statistics accumulate in the result: the hot loop must not touch
  // atomics.
  for (std::size_t iter = 0; iter < params.iterations; ++iter) {
    // --- perturbation function -------------------------------------------
    // One move per iteration: occasionally the VM mapping (full rescore —
    // every path is invalidated), otherwise one randomly chosen path.
    Evaluation cand_eval;
    bool mapping_move = rng.chance(params.mapping_perturb_prob);
    std::size_t moved_demand = 0;
    if (mapping_move) {
      previous_conf = ev.configuration();
      Configuration candidate = previous_conf;
      perturb_mapping(candidate, n_hosts, rng, scratch);
      reset_paths_direct(candidate, demands);  // new mapping invalidates paths
      ev.reset(std::move(candidate));
      cand_eval = ev.evaluation();
    } else if (n_demands > 0) {
      moved_demand = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n_demands) - 1));
      const Path& live = ev.configuration().paths[moved_demand];
      old_path.assign(live.begin(), live.end());
      candidate_path.assign(live.begin(), live.end());
      const double u = rng.uniform(0.0, 3.0);
      if (u < 1.0) {
        perturb_insert(candidate_path, n_hosts, rng, scratch);
      } else if (u < 2.0) {
        perturb_delete(candidate_path, rng);
      } else {
        perturb_swap(candidate_path, rng);
      }
      ev.set_path(moved_demand, candidate_path);
      cand_eval = ev.evaluation();
    } else {
      cand_eval = current_eval;  // nothing to perturb
    }

    // --- acceptance --------------------------------------------------------
    const double dE = cand_eval.cost - current_eval.cost;
    const bool accept = dE >= 0 || rng.chance(std::exp(dE / temperature));
    if (mapping_move) ++result.mapping_moves;
    if (accept) {
      ++result.accepted;
    } else {
      ++result.rejected;
    }
    if (accept) {
      current_eval = cand_eval;
      if (current_eval.cost > result.best_evaluation.cost) {
        result.best = ev.configuration();
        result.best_evaluation = current_eval;
      }
    } else if (mapping_move) {
      ev.reset(std::move(previous_conf));
    } else if (n_demands > 0) {
      ev.set_path(moved_demand, old_path);  // O(path length) revert
    }
    // Acceptance bookkeeping: the incumbent best can never fall behind the
    // walker, and hill-climbing moves (dE >= 0) are always taken.
    VW_ASSERT(result.best_evaluation.cost >= current_eval.cost,
              "simulated_annealing: best fell behind current");
    VW_ASSERT(!(dE >= 0) || accept, "simulated_annealing: improving move rejected");

    if (iter % params.trace_stride == 0) {
      result.trace.push_back(
          AnnealingTracePoint{iter, current_eval.cost, result.best_evaluation.cost});
    }
    temperature *= params.cooling;
  }

  result.final_state = ev.configuration();
  return result;
}

}  // namespace

Configuration random_configuration(const CapacityGraph& graph, const std::vector<Demand>& demands,
                                   std::size_t n_vms, Rng& rng) {
  const std::size_t n_hosts = graph.size();
  VW_REQUIRE(n_vms <= n_hosts, "random_configuration: more VMs (", n_vms, ") than hosts (",
             n_hosts, ")");
  std::vector<HostIndex> hosts(n_hosts);
  std::iota(hosts.begin(), hosts.end(), HostIndex{0});
  // Fisher-Yates prefix shuffle.
  for (std::size_t i = 0; i < n_vms; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i), static_cast<std::int64_t>(n_hosts) - 1));
    std::swap(hosts[i], hosts[j]);
  }
  Configuration conf;
  conf.mapping.assign(hosts.begin(), hosts.begin() + static_cast<std::ptrdiff_t>(n_vms));
  conf.paths.reserve(demands.size());
  for (const Demand& d : demands) conf.paths.push_back(direct_path(conf, d));
  // Every VM placed, no host doubly used: the feasibility bedrock of VADAPT.
  VW_ENSURE(conf.mapping.size() == n_vms, "random_configuration: VM left unplaced");
  VW_AUDIT(valid_mapping(conf.mapping, n_hosts),
           "random_configuration: mapping not injective/in range");
  return conf;
}

AnnealingResult simulated_annealing(const CapacityGraph& graph,
                                    const std::vector<Demand>& demands, std::size_t n_vms,
                                    const Objective& objective, const AnnealingParams& params,
                                    Rng rng, std::optional<Configuration> initial) {
  const std::size_t n_hosts = graph.size();
  VW_REQUIRE(params.trace_stride > 0, "simulated_annealing: trace_stride must be >= 1");

  Configuration current =
      initial ? std::move(*initial) : random_configuration(graph, demands, n_vms, rng);
  VW_REQUIRE(current.mapping.size() == n_vms,
             "simulated_annealing: initial mapping places ", current.mapping.size(),
             " VMs, expected ", n_vms);
  VW_AUDIT(valid_mapping(current.mapping, n_hosts),
           "simulated_annealing: initial mapping not injective/in range");
  if (current.paths.size() != demands.size()) reset_paths_direct(current, demands);

  const SimTime start = params.obs.tracer != nullptr ? params.obs.tracer->now() : 0;
  AnnealingResult result;
  if (params.full_rescore) {
    FullRescorer ev(graph, demands, objective);
    result = anneal_loop(graph, demands, params, rng, std::move(current), ev);
  } else {
    IncrementalEvaluator ev(graph, demands, objective);
    result = anneal_loop(graph, demands, params, rng, std::move(current), ev);
  }
  record_annealing_run(params.obs, params, result, start);
  return result;
}

void record_annealing_run(const obs::Scope& scope, const AnnealingParams& params,
                          const AnnealingResult& result, SimTime start) {
  if (scope.metrics != nullptr) {
    obs::add(scope.counter("vadapt.sa.runs"));
    obs::add(scope.counter("vadapt.sa.iterations"), params.iterations);
    obs::add(scope.counter("vadapt.sa.moves.accepted"), result.accepted);
    obs::add(scope.counter("vadapt.sa.moves.rejected"), result.rejected);
    obs::add(scope.counter("vadapt.sa.moves.mapping"), result.mapping_moves);
    obs::record(scope.histogram("vadapt.sa.best_cost"), result.best_evaluation.cost);
  }
  if (scope.tracer != nullptr) {
    scope.tracer->complete("vadapt.sa", "vadapt", start, scope.tracer->now(),
                           {{"iterations", std::to_string(params.iterations)},
                            {"accepted", std::to_string(result.accepted)}});
  }
}

}  // namespace vw::vadapt
