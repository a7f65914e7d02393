// Warm-start re-adaptation micro benchmarks:
// streaming single-link re-adaptation through WarmStartOptimizer vs the
// from-scratch multi-start pipeline the cold path runs, on BRITE overlay
// graphs at 256 and 1024 daemons.
//
// The gate (tools/bench_to_json.py --suite vadapt_warm, full length): a
// warm single-link re-adapt at 1024 VMs must be >= 10x faster than a
// from-scratch solve of the same problem; full runs measure ~20-35x. A warm
// adapt still does O(D) work in the demand count D (compatibility check,
// rate drift, gain scan, canonical resum), so its time grows with the
// problem too; the delta-size sweep (1/4/16/64 changed pairs at 1024 VMs)
// shows what the touched set adds on top.
//
// The cold series deliberately starts from random configurations (no greedy
// seed): on a complete 1024-host overlay the greedy heuristic's widest-path
// trees are themselves the dominant cost, and the gate compares against the
// annealing pipeline, not against greedy.
//
// Custom main: runtime audits (VW_AUDIT) are disabled so contract checks
// (the warm path's monotone-commit ensures) don't pollute the timing.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "vadapt/multistart.hpp"
#include "vadapt/problem.hpp"
#include "vadapt/warm_start.hpp"
#include "vadapt_problems.hpp"
#include "wren/delta.hpp"

namespace {

using namespace vw;
using namespace vw::vadapt;

using bench::brite_overlay;
using bench::ring_demands;

// The system's cold kMultiStartAnnealing path with its default solver
// parameters (4 chains x 5000 iterations), run serially so the gate
// measures work, not parallel speedup. Trace recording is disabled (the
// system default records every iteration) to keep the baseline
// conservative.
MultiStartParams cold_params() {
  MultiStartParams ms;
  ms.threads = 1;
  ms.seed = 4242;
  ms.annealing.trace_stride = ms.annealing.iterations;
  return ms;
}

// --- from-scratch baseline: what every adaptation costs without warm start -
void BM_ColdFromScratch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const CapacityGraph g = brite_overlay(n, 11);
  const auto demands = ring_demands(n, 20e6);
  MultiStartParams ms = cold_params();
  for (auto _ : state) {
    ++ms.seed;  // fresh chains per solve, as the system's cold path draws
    benchmark::DoNotOptimize(multi_start_annealing(g, demands, n, Objective{}, ms));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColdFromScratch)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdFromScratch)->Arg(1024)->Unit(benchmark::kMillisecond);

// --- warm single-link re-adaptation ----------------------------------------
// One changed directed pair per adapt — the streaming case the optimizer
// exists for. Adoption (the once-per-cold O(n^2) copy) happens in setup,
// outside the timed region; each iteration consumes a one-pair delta.
void BM_WarmSingleLink(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const CapacityGraph g = brite_overlay(n, 11);
  const auto demands = ring_demands(n, 20e6);
  MultiStartParams ms = cold_params();
  const MultiStartResult cold = multi_start_annealing(g, demands, n, Objective{}, ms);

  WarmStartParams wp;
  wp.enabled = true;
  WarmStartOptimizer warm(wp);
  warm.adopt(g, demands, n, cold.best.best);

  const net::NodeId u = g.hosts()[0];
  const net::NodeId v = g.hosts()[1];
  const double base = g.bandwidth(0, 1);
  std::uint64_t epoch = 0;
  bool low = false;
  for (auto _ : state) {
    wren::ViewDelta delta;
    delta.note_bandwidth(u, v, low ? base * 0.5 : base);  // alternate: no drift
    low = !low;
    benchmark::DoNotOptimize(warm.adapt(delta, demands, Rng(epoch++)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WarmSingleLink)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WarmSingleLink)->Arg(1024)->Unit(benchmark::kMillisecond);

// --- delta-size sweep at 1024 VMs ------------------------------------------
// Re-adapt cost as a function of how many directed pairs the delta touches:
// the O(delta) claim is that this curve, not the problem size, drives time.
void BM_WarmDeltaSize(benchmark::State& state) {
  constexpr std::size_t kN = 1024;
  const auto k = static_cast<std::size_t>(state.range(0));
  const CapacityGraph g = brite_overlay(kN, 11);
  const auto demands = ring_demands(kN, 20e6);
  MultiStartParams ms = cold_params();
  const MultiStartResult cold = multi_start_annealing(g, demands, kN, Objective{}, ms);

  WarmStartParams wp;
  wp.enabled = true;
  WarmStartOptimizer warm(wp);
  warm.adopt(g, demands, kN, cold.best.best);

  std::vector<double> base(k);
  for (std::size_t i = 0; i < k; ++i) base[i] = g.bandwidth(i, (i + 7) % kN);
  std::uint64_t epoch = 0;
  bool low = false;
  for (auto _ : state) {
    wren::ViewDelta delta;
    for (std::size_t i = 0; i < k; ++i) {
      delta.note_bandwidth(g.hosts()[i], g.hosts()[(i + 7) % kN],
                           low ? base[i] * 0.5 : base[i]);
    }
    low = !low;
    benchmark::DoNotOptimize(warm.adapt(delta, demands, Rng(epoch++)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK(BM_WarmDeltaSize)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  vw::contracts::set_audit_enabled(false);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
