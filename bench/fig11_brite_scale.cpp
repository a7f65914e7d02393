// Figure 11 reproduction: scalability study — adaptation of an 8-VM ring
// application onto 32 VNET hosts chosen from a 256-node BRITE (Waxman
// flat-router) physical topology, bandwidths uniform in [10, 1024] Mb/s,
// out-degree 2. Each overlay link is the routed path in the underlying
// topology (bottleneck bandwidth / summed latency).
//
// The paper's findings to reproduce: GH completes almost instantly but is
// beatable; SA takes longer yet eventually meets and exceeds the GH
// solution; with the combined bandwidth+latency objective (Eq. 3) SA
// greatly exceeds GH (which ignores latency entirely).
//
// Output: CSV objective, iteration, sa, sa_gh, sa_gh_best, ms_best, gh
// (ms_best = best-so-far of the winning multi-start chain) + timing notes
// on stderr.

#include <chrono>
#include <iostream>

#include "topo/brite.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "vadapt/annealing.hpp"
#include "vadapt/greedy.hpp"
#include "vadapt/multistart.hpp"

using namespace vw;
using namespace vw::vadapt;

namespace {

void run_objective(const CapacityGraph& graph, const std::vector<Demand>& demands,
                   std::size_t n_vms, const Objective& objective, const char* label,
                   CsvWriter& csv) {
  const auto t0 = std::chrono::steady_clock::now();
  const GreedyResult gh = greedy_heuristic(graph, demands, n_vms, objective);
  const auto t1 = std::chrono::steady_clock::now();

  AnnealingParams params;
  params.iterations = 100'000;
  params.cooling = 0.99995;
  params.trace_stride = 200;
  RngService rngs(4242);
  Rng r1 = rngs.stream(std::string("fig11.sa.") + label);
  const AnnealingResult sa = simulated_annealing(graph, demands, n_vms, objective, params, r1);
  Rng r2 = rngs.stream(std::string("fig11.sagh.") + label);
  const AnnealingResult sa_gh =
      simulated_annealing(graph, demands, n_vms, objective, params, r2, gh.configuration);
  const auto t2 = std::chrono::steady_clock::now();

  // Multi-start: 4 chains, chain 0 seeded with GH, same per-chain budget.
  MultiStartParams ms_params;
  ms_params.chains = 4;
  ms_params.annealing = params;
  ms_params.seed = rngs.seed_for(std::string("fig11.multistart.") + label);
  const MultiStartResult multi =
      multi_start_annealing(graph, demands, n_vms, objective, ms_params, gh.configuration);
  const auto t3 = std::chrono::steady_clock::now();

  for (std::size_t i = 0; i < sa.trace.size(); i += 5) {
    csv.text_row({label, std::to_string(sa.trace[i].iteration),
                  std::to_string(sa.trace[i].current_cost / 1e6),
                  std::to_string(sa_gh.trace[i].current_cost / 1e6),
                  std::to_string(sa_gh.trace[i].best_cost / 1e6),
                  std::to_string(multi.best.trace[i].best_cost / 1e6),
                  std::to_string(gh.evaluation.cost / 1e6)});
  }

  using ms = std::chrono::duration<double, std::milli>;
  std::cerr << "fig11 [" << label << "]: GH=" << gh.evaluation.cost / 1e6 << " in "
            << ms(t1 - t0).count() << " ms; SA best=" << sa.best_evaluation.cost / 1e6
            << ", SA+GH best=" << sa_gh.best_evaluation.cost / 1e6 << " in "
            << ms(t2 - t1).count() << " ms (both runs); multistart(K=4)+GH best="
            << multi.best.best_evaluation.cost / 1e6 << " (chain " << multi.best_chain
            << ") in " << ms(t3 - t2).count() << " ms\n";
}

}  // namespace

int main() {
  topo::BriteParams params;
  params.nodes = 256;
  params.out_degree = 2;
  RngService rngs(99);
  Rng gen = rngs.stream("fig11.brite");
  const topo::BriteTopology brite(params, gen);
  Rng pick = rngs.stream("fig11.hosts");
  const CapacityGraph graph = brite.overlay_capacity_graph(32, pick);

  // 8-VM ring application.
  std::vector<Demand> demands;
  for (std::size_t i = 0; i < 8; ++i) demands.push_back({i, (i + 1) % 8, 20e6});

  std::cout << "# Figure 11: 8-VM ring onto 32 VNET hosts over a 256-node BRITE topology\n";
  CsvWriter csv(std::cout,
                {"objective", "iteration", "sa", "sa_gh", "sa_gh_best", "ms_best", "gh"});

  Objective residual;  // Eq. 1
  run_objective(graph, demands, 8, residual, "residual_bw", csv);

  Objective combined;  // Eq. 3
  combined.kind = ObjectiveKind::kResidualBandwidthLatency;
  // c sized so a millisecond-scale path latency is worth hundreds of Mb/s
  // of residual capacity — the latency term must actually steer the search
  // (GH ignores it entirely, which is the point of this comparison).
  combined.latency_weight = 3e5;
  run_objective(graph, demands, 8, combined, "residual_bw_latency", csv);

  return 0;
}
