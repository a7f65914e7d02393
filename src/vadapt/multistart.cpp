#include "vadapt/multistart.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace vw::vadapt {

namespace {

struct ChainSlot {
  AnnealingResult result;
  std::exception_ptr error;
};

}  // namespace

std::size_t multi_start_threads(const MultiStartParams& params) {
  const std::size_t threads =
      params.threads == 0 ? ThreadPool::default_thread_count() : params.threads;
  return std::min(threads, params.chains);
}

MultiStartResult multi_start_annealing(const CapacityGraph& graph,
                                       const std::vector<Demand>& demands, std::size_t n_vms,
                                       const Objective& objective,
                                       const MultiStartParams& params,
                                       std::optional<Configuration> initial) {
  VW_REQUIRE(params.chains >= 1, "multi_start_annealing: need at least one chain");

  // Derive one deterministic seed per chain from the caller's root seed.
  const RngService seeds(params.seed);
  std::vector<std::uint64_t> chain_seeds(params.chains);
  for (std::size_t k = 0; k < params.chains; ++k) {
    chain_seeds[k] = seeds.seed_for("vadapt.multistart.chain." + std::to_string(k));
  }

  // Chains run with telemetry off and are recorded after the batch in chain
  // order, so the trace and the metrics do not depend on which chain
  // finished first.
  const obs::Scope& scope = params.annealing.obs;
  AnnealingParams chain_params = params.annealing;
  chain_params.obs = {};
  const SimTime start = scope.tracer != nullptr ? scope.tracer->now() : 0;

  std::vector<ChainSlot> slots(params.chains);
  auto run_chain = [&](std::size_t k) {
    try {
      std::optional<Configuration> chain_initial;
      if (initial && k == 0) chain_initial = *initial;
      slots[k].result = simulated_annealing(graph, demands, n_vms, objective, chain_params,
                                            Rng(chain_seeds[k]), std::move(chain_initial));
    } catch (...) {
      slots[k].error = std::current_exception();
    }
  };

  const std::size_t threads = multi_start_threads(params);
  if (threads <= 1) {
    for (std::size_t k = 0; k < params.chains; ++k) run_chain(k);
  } else if (params.pool != nullptr) {
    params.pool->run_batch(params.chains, run_chain);
  } else {
    ThreadPool(threads).run_batch(params.chains, run_chain);
  }

  // Propagate the first (lowest-index) chain failure deterministically.
  for (std::size_t k = 0; k < params.chains; ++k) {
    if (slots[k].error) std::rethrow_exception(slots[k].error);
  }

  // Merge best-of: highest CEF wins, ties break toward the lowest chain
  // index — the reduction is independent of completion order.
  MultiStartResult out;
  out.chains.reserve(params.chains);
  std::size_t best = 0;
  for (std::size_t k = 0; k < params.chains; ++k) {
    record_annealing_run(scope, params.annealing, slots[k].result, start);
    out.chains.push_back({chain_seeds[k], slots[k].result.best_evaluation});
    if (slots[k].result.best_evaluation.cost > slots[best].result.best_evaluation.cost) {
      best = k;
    }
  }
  out.best_chain = best;
  out.best = std::move(slots[best].result);
  VW_ENSURE(out.chains.size() == params.chains, "multi_start_annealing: chain outcome lost");

  if (scope.metrics != nullptr) {
    obs::add(scope.counter("vadapt.multistart.runs"));
    obs::add(scope.counter("vadapt.multistart.chains"), params.chains);
  }
  return out;
}

}  // namespace vw::vadapt
