// Incremental-evaluation micro benchmarks (the PR's acceptance gate): SA
// iteration throughput with the O(path-length) IncrementalEvaluator vs the
// pre-incremental full-rescore cost structure, the underlying single-move
// delta vs a from-scratch evaluate(), and the adjacency-list and cached
// widest paths.
//
// Both annealing variants consume the identical RNG stream and — because
// delta evaluation is bit-exact — make identical optimizer decisions, so
// the ratio of their items_per_second is a pure cost-structure comparison
// at the problem size the paper's Figure 11 uses (32 hosts, 8-VM ring).
//
// tools/bench_to_json.py runs this binary and emits BENCH_vadapt.json with
// the derived speedups.
//
// Custom main: runtime audits (VW_AUDIT) are disabled so contract checks
// in hot loops don't pollute the timing.

#include <benchmark/benchmark.h>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "vadapt/annealing.hpp"
#include "vadapt/greedy.hpp"
#include "vadapt/incremental.hpp"
#include "vadapt/widest_path.hpp"
#include "vadapt_problems.hpp"

namespace {

using namespace vw;
using namespace vw::vadapt;

constexpr std::size_t kHosts = 32;
constexpr std::size_t kVms = 8;

using bench::random_graph;
using bench::ring_demands;

// --- SA iteration throughput: full rescore vs incremental ------------------
// items_per_second = SA iterations per second; the acceptance criterion is
// incremental >= 5x full at this problem size.
void BM_AnnealingIteration(benchmark::State& state, bool full_rescore) {
  const CapacityGraph g = random_graph(kHosts, 3);
  const auto demands = ring_demands(kVms, 20e6);
  AnnealingParams params;
  params.iterations = 2000;
  params.trace_stride = params.iterations;  // no trace overhead
  params.full_rescore = full_rescore;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulated_annealing(g, demands, kVms, Objective{}, params, Rng(seed++)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(params.iterations));
}
BENCHMARK_CAPTURE(BM_AnnealingIteration, full, true);
BENCHMARK_CAPTURE(BM_AnnealingIteration, incremental, false);

// Same comparison under the Eq.3 combined objective (latency term adds a
// per-demand division that the delta path also skips for untouched demands).
void BM_AnnealingIterationEq3(benchmark::State& state, bool full_rescore) {
  const CapacityGraph g = random_graph(kHosts, 3);
  const auto demands = ring_demands(kVms, 20e6);
  Objective objective;
  objective.kind = ObjectiveKind::kResidualBandwidthLatency;
  objective.latency_weight = 3e5;
  AnnealingParams params;
  params.iterations = 2000;
  params.trace_stride = params.iterations;
  params.full_rescore = full_rescore;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulated_annealing(g, demands, kVms, objective, params, Rng(seed++)));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(params.iterations));
}
BENCHMARK_CAPTURE(BM_AnnealingIterationEq3, full, true);
BENCHMARK_CAPTURE(BM_AnnealingIterationEq3, incremental, false);

// --- the primitive underneath: one move scored from scratch vs as a delta --
void BM_EvaluateFull(benchmark::State& state) {
  const CapacityGraph g = random_graph(kHosts, 5);
  const auto demands = ring_demands(kVms, 20e6);
  Rng rng(7);
  const Configuration conf = random_configuration(g, demands, kVms, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate(g, demands, conf, Objective{}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluateFull);

void BM_SetPathDelta(benchmark::State& state) {
  const CapacityGraph g = random_graph(kHosts, 5);
  const auto demands = ring_demands(kVms, 20e6);
  Rng rng(7);
  IncrementalEvaluator ev(g, demands, Objective{});
  ev.reset(random_configuration(g, demands, kVms, rng));
  const Path direct(ev.configuration().paths[0]);
  Path detour = direct;
  detour.insert(detour.begin() + 1, (direct[0] + 1) % kHosts == direct[1]
                                        ? (direct[0] + 2) % kHosts
                                        : (direct[0] + 1) % kHosts);
  bool flip = false;
  for (auto _ : state) {
    ev.set_path(0, flip ? detour : direct);  // apply + revert alternate
    benchmark::DoNotOptimize(ev.evaluation());
    flip = !flip;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetPathDelta);

// --- widest paths: adjacency view vs cached tree ---------------------------
// The dense O(n^2) scan on the same graphs is micro_algorithms'
// BM_WidestPaths.
void BM_WidestPathsView(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const CapacityGraph g = random_graph(n, 1);
  const AdjacencyView view(g.bandwidth_matrix());
  for (auto _ : state) {
    benchmark::DoNotOptimize(widest_paths(view, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WidestPathsView)->Arg(32)->Arg(128);

void BM_WidestPathsCached(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const CapacityGraph g = random_graph(n, 1);
  const AdjacencyView view(g.bandwidth_matrix());
  WidestPathCache cache(view);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.tree(0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WidestPathsCached)->Arg(32)->Arg(128);

// Greedy heuristic end to end (now sharing one tree cache across the
// mapping and routing steps).
void BM_GreedyHeuristic(benchmark::State& state) {
  const CapacityGraph g = random_graph(kHosts, 2);
  const auto demands = ring_demands(kVms, 20e6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_heuristic(g, demands, kVms));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GreedyHeuristic);

}  // namespace

int main(int argc, char** argv) {
  vw::contracts::set_audit_enabled(false);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
