// Differential tests for the incremental VADAPT optimizer core:
//  * IncrementalEvaluator vs from-scratch evaluate() over long randomized
//    perturbation walks (path and mapping moves) — bit-exact by design,
//    asserted both exactly and at the 1e-9 contract tolerance;
//  * simulated_annealing incremental mode vs the full-rescore reference —
//    bit-identical optimizer decisions from the same seed;
//  * multi-start determinism: K chains on a thread pool reproduce the
//    single-thread merge for the same seed set;
//  * the thread pool itself, and the trace_stride == 0 contract.

#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topo/testbed.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "vadapt/annealing.hpp"
#include "vadapt/greedy.hpp"
#include "vadapt/incremental.hpp"
#include "vadapt/multistart.hpp"
#include "vadapt/problem.hpp"
#include "vadapt/warm_start.hpp"
#include "vadapt/widest_path.hpp"
#include "wren/delta.hpp"
#include "wren/view.hpp"

namespace vw::vadapt {
namespace {

CapacityGraph random_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<net::NodeId> hosts(n);
  for (std::size_t i = 0; i < n; ++i) hosts[i] = static_cast<net::NodeId>(i);
  CapacityGraph g(hosts);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      g.set_bandwidth(i, j, rng.uniform(5e6, 500e6));
      g.set_latency(i, j, rng.uniform(0.0001, 0.02));
    }
  }
  return g;
}

std::vector<Demand> mixed_demands(std::size_t n_vms, Rng& rng) {
  std::vector<Demand> demands;
  for (std::size_t i = 0; i < n_vms; ++i) {
    demands.push_back({i, (i + 1) % n_vms, rng.uniform(1e6, 60e6)});
  }
  demands.push_back({0, n_vms / 2, rng.uniform(1e6, 60e6)});  // shared-edge pressure
  demands.push_back({n_vms - 1, 1, rng.uniform(1e6, 60e6)});
  return demands;
}

// A randomized single-path perturbation mirroring the annealer's move set,
// built only from public state.
Path perturb_path(const Path& path, std::size_t n_hosts, Rng& rng) {
  Path out = path;
  const double u = rng.uniform(0.0, 3.0);
  if (u < 1.0 && out.size() < n_hosts) {
    std::vector<char> on_path(n_hosts, 0);
    for (HostIndex h : out) on_path[h] = 1;
    std::vector<HostIndex> pool;
    for (HostIndex h = 0; h < n_hosts; ++h) {
      if (!on_path[h]) pool.push_back(h);
    }
    if (!pool.empty()) {
      const HostIndex v = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(out.size()) - 1));
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos), v);
    }
  } else if (u < 2.0 && out.size() > 2) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(out.size()) - 2));
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(pos));
  } else if (out.size() > 3) {
    const auto x = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(out.size()) - 2));
    auto y = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(out.size()) - 2));
    if (x == y) y = 1 + (y - 1 + 1) % (out.size() - 2);
    std::swap(out[x], out[y]);
  }
  return out;
}

void run_differential_walk(const Objective& objective, std::uint64_t seed,
                           std::size_t iterations) {
  const std::size_t n_hosts = 12;
  const std::size_t n_vms = 6;
  const CapacityGraph graph = random_graph(n_hosts, seed);
  Rng rng(seed * 7 + 1);
  const std::vector<Demand> demands = mixed_demands(n_vms, rng);

  IncrementalEvaluator ev(graph, demands, objective);
  ev.reset(random_configuration(graph, demands, n_vms, rng));

  std::size_t mapping_moves = 0;
  std::size_t path_moves = 0;
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    if (rng.chance(0.05)) {
      // Mapping move: fresh random configuration, full rescore.
      ev.reset(random_configuration(graph, demands, n_vms, rng));
      ++mapping_moves;
    } else {
      const auto d = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(demands.size()) - 1));
      ev.set_path(d, perturb_path(ev.configuration().paths[d], n_hosts, rng));
      ++path_moves;
    }

    const Evaluation full = evaluate(graph, demands, ev.configuration(), objective);
    const Evaluation& inc = ev.evaluation();
    // Contract tolerance from the issue...
    ASSERT_NEAR(inc.cost, full.cost, 1e-9 * std::max(1.0, std::abs(full.cost)))
        << "iteration " << iter;
    ASSERT_NEAR(inc.min_residual_bps, full.min_residual_bps,
                1e-9 * std::max(1.0, std::abs(full.min_residual_bps)))
        << "iteration " << iter;
    // ...and the stronger bit-exactness the implementation guarantees.
    ASSERT_EQ(inc.cost, full.cost) << "cost drifted at iteration " << iter;
    ASSERT_EQ(inc.min_residual_bps, full.min_residual_bps)
        << "min residual drifted at iteration " << iter;
    ASSERT_EQ(inc.feasible, full.feasible) << "iteration " << iter;
  }
  EXPECT_GT(mapping_moves, 0u);
  EXPECT_GT(path_moves, iterations / 2);
}

TEST(IncrementalEvaluatorTest, RandomWalkMatchesFullEvaluateEq1) {
  run_differential_walk(Objective{}, 17, 6000);
}

TEST(IncrementalEvaluatorTest, RandomWalkMatchesFullEvaluateEq3) {
  Objective obj;
  obj.kind = ObjectiveKind::kResidualBandwidthLatency;
  obj.latency_weight = 2e5;
  run_differential_walk(obj, 23, 6000);
}

TEST(IncrementalEvaluatorTest, RevertRestoresStateExactly) {
  const CapacityGraph graph = random_graph(8, 3);
  Rng rng(9);
  const std::vector<Demand> demands = mixed_demands(4, rng);
  IncrementalEvaluator ev(graph, demands);
  ev.reset(random_configuration(graph, demands, 4, rng));

  const Evaluation before = ev.evaluation();
  const Path original = ev.configuration().paths[1];
  const Path moved = perturb_path(original, 8, rng);
  ev.set_path(1, moved);
  ev.set_path(1, original);  // the annealer's reject-revert
  EXPECT_EQ(ev.evaluation().cost, before.cost);
  EXPECT_EQ(ev.evaluation().min_residual_bps, before.min_residual_bps);
  EXPECT_EQ(ev.configuration().paths[1], original);
}

TEST(IncrementalEvaluatorTest, TracksSharedEdgeDemands) {
  // Two demands share edge 1->2; moving one must rescore the other.
  CapacityGraph g({0, 1, 2, 3});
  for (HostIndex i = 0; i < 4; ++i) {
    for (HostIndex j = 0; j < 4; ++j) {
      if (i != j) g.set_bandwidth(i, j, 100e6);
    }
  }
  const std::vector<Demand> demands{{0, 1, 30e6}, {2, 1, 40e6}};
  Configuration conf;
  conf.mapping = {1, 2, 3, 0};  // VM0@h1, VM1@h2, VM2@h3
  conf.paths = {{1, 2}, {3, 1, 2}};  // both cross 1->2
  IncrementalEvaluator ev(g, demands);
  ev.reset(conf);
  EXPECT_DOUBLE_EQ(ev.residual(1, 2), 100e6 - 70e6);
  EXPECT_DOUBLE_EQ(ev.bottleneck(0), 30e6);

  // Re-route demand 1 off the shared edge: demand 0's bottleneck recovers.
  ev.set_path(1, {3, 2});
  EXPECT_DOUBLE_EQ(ev.residual(1, 2), 70e6);
  EXPECT_DOUBLE_EQ(ev.bottleneck(0), 70e6);
  EXPECT_EQ(ev.evaluation().cost,
            evaluate(g, demands, ev.configuration()).cost);
}

// --- annealing: incremental vs full-rescore reference ---------------------------

void expect_bit_identical_runs(const CapacityGraph& graph, const std::vector<Demand>& demands,
                               std::size_t n_vms, const Objective& objective,
                               std::optional<Configuration> initial, std::uint64_t seed) {
  AnnealingParams params;
  params.iterations = 3000;
  params.trace_stride = 1;

  params.full_rescore = false;
  const AnnealingResult inc =
      simulated_annealing(graph, demands, n_vms, objective, params, Rng(seed), initial);
  params.full_rescore = true;
  const AnnealingResult full =
      simulated_annealing(graph, demands, n_vms, objective, params, Rng(seed), initial);

  ASSERT_EQ(inc.trace.size(), full.trace.size());
  for (std::size_t i = 0; i < inc.trace.size(); ++i) {
    ASSERT_EQ(inc.trace[i].iteration, full.trace[i].iteration) << "i=" << i;
    ASSERT_EQ(inc.trace[i].current_cost, full.trace[i].current_cost)
        << "decision diverged at iteration " << i;
    ASSERT_EQ(inc.trace[i].best_cost, full.trace[i].best_cost) << "i=" << i;
  }
  EXPECT_EQ(inc.best_evaluation.cost, full.best_evaluation.cost);
  EXPECT_EQ(inc.best.mapping, full.best.mapping);
  EXPECT_EQ(inc.best.paths, full.best.paths);
  EXPECT_EQ(inc.final_state.mapping, full.final_state.mapping);
  EXPECT_EQ(inc.final_state.paths, full.final_state.paths);
}

TEST(AnnealingDifferentialTest, IncrementalDecisionsMatchFullRescoreBitwise) {
  const topo::ChallengeScenario sc = topo::make_challenge_scenario();
  expect_bit_identical_runs(sc.graph, sc.demands, sc.n_vms, Objective{}, std::nullopt, 101);
}

TEST(AnnealingDifferentialTest, SeededChainMatchesWithLatencyObjective) {
  const topo::ChallengeScenario sc = topo::make_challenge_scenario();
  const GreedyResult gh = greedy_heuristic(sc.graph, sc.demands, sc.n_vms);
  Objective obj;
  obj.kind = ObjectiveKind::kResidualBandwidthLatency;
  obj.latency_weight = 3e5;
  expect_bit_identical_runs(sc.graph, sc.demands, sc.n_vms, obj, gh.configuration, 202);
}

TEST(AnnealingDifferentialTest, RandomGraphMatches) {
  const CapacityGraph graph = random_graph(10, 77);
  Rng rng(78);
  const std::vector<Demand> demands = mixed_demands(5, rng);
  expect_bit_identical_runs(graph, demands, 5, Objective{}, std::nullopt, 303);
}

TEST(AnnealingTest, TraceStrideZeroViolatesContract) {
  const topo::ChallengeScenario sc = topo::make_challenge_scenario();
  AnnealingParams params;
  params.trace_stride = 0;
  EXPECT_THROW(simulated_annealing(sc.graph, sc.demands, sc.n_vms, Objective{}, params, Rng(1)),
               std::invalid_argument);
}

// --- multi-start ----------------------------------------------------------------

TEST(MultiStartTest, DeterministicAcrossThreadCounts) {
  const CapacityGraph graph = random_graph(16, 5);
  Rng rng(6);
  const std::vector<Demand> demands = mixed_demands(6, rng);

  MultiStartParams params;
  params.chains = 5;
  params.seed = 99;
  params.annealing.iterations = 1500;
  params.annealing.trace_stride = 1500;

  params.threads = 1;
  const MultiStartResult sequential =
      multi_start_annealing(graph, demands, 6, Objective{}, params);
  params.threads = 4;
  const MultiStartResult threaded = multi_start_annealing(graph, demands, 6, Objective{}, params);

  EXPECT_EQ(sequential.best_chain, threaded.best_chain);
  EXPECT_EQ(sequential.best.best_evaluation.cost, threaded.best.best_evaluation.cost);
  EXPECT_EQ(sequential.best.best.mapping, threaded.best.best.mapping);
  EXPECT_EQ(sequential.best.best.paths, threaded.best.best.paths);
  ASSERT_EQ(sequential.chains.size(), threaded.chains.size());
  for (std::size_t k = 0; k < sequential.chains.size(); ++k) {
    EXPECT_EQ(sequential.chains[k].seed, threaded.chains[k].seed);
    EXPECT_EQ(sequential.chains[k].best_evaluation.cost, threaded.chains[k].best_evaluation.cost)
        << "chain " << k;
  }
}

TEST(MultiStartTest, TelemetryIsIndependentOfCompletionOrder) {
  // Pooled chains finish in whatever order the scheduler picks; their
  // vadapt.sa spans and metrics must still come out in chain order, the
  // same as a serial run's.
  const CapacityGraph graph = random_graph(16, 5);
  Rng rng(6);
  const std::vector<Demand> demands = mixed_demands(6, rng);
  const auto run = [&](std::size_t threads) {
    obs::MetricsRegistry metrics;
    obs::EventTracer tracer;
    MultiStartParams params;
    params.chains = 4;
    params.threads = threads;
    params.seed = 99;
    params.annealing.iterations = 1500;
    params.annealing.trace_stride = 1500;
    params.annealing.obs = obs::Scope{&metrics, &tracer};
    multi_start_annealing(graph, demands, 6, Objective{}, params);
    const std::vector<obs::TraceEvent> events = tracer.events();
    EXPECT_EQ(std::count_if(events.begin(), events.end(),
                            [](const obs::TraceEvent& e) { return e.name == "vadapt.sa"; }),
              4);
    return std::pair{obs::events_jsonl(events), obs::metrics_json(metrics.snapshot())};
  };
  const auto pooled = run(4);
  EXPECT_EQ(run(4), pooled);
  EXPECT_EQ(run(1), pooled);
}

TEST(MultiStartTest, BestIsMaxOverChains) {
  const CapacityGraph graph = random_graph(12, 41);
  Rng rng(42);
  const std::vector<Demand> demands = mixed_demands(5, rng);
  MultiStartParams params;
  params.chains = 4;
  params.threads = 2;
  params.seed = 7;
  params.annealing.iterations = 800;
  params.annealing.trace_stride = 800;
  const MultiStartResult result = multi_start_annealing(graph, demands, 5, Objective{}, params);
  ASSERT_EQ(result.chains.size(), 4u);
  for (const ChainOutcome& chain : result.chains) {
    EXPECT_LE(chain.best_evaluation.cost, result.best.best_evaluation.cost);
  }
  EXPECT_EQ(result.best.best_evaluation.cost,
            result.chains[result.best_chain].best_evaluation.cost);
}

TEST(MultiStartTest, SeededNeverWorseThanGreedy) {
  const topo::ChallengeScenario sc = topo::make_challenge_scenario();
  const GreedyResult gh = greedy_heuristic(sc.graph, sc.demands, sc.n_vms);
  MultiStartParams params;
  params.chains = 3;
  params.threads = 3;
  params.seed = 11;
  params.annealing.iterations = 2000;
  params.annealing.trace_stride = 2000;
  const MultiStartResult result =
      multi_start_annealing(sc.graph, sc.demands, sc.n_vms, Objective{}, params,
                            gh.configuration);
  EXPECT_GE(result.best.best_evaluation.cost, gh.evaluation.cost);
  for (const Path& p : result.best.best.paths) {
    EXPECT_TRUE(valid_path(p, result.best.best,
                           sc.demands[static_cast<std::size_t>(&p - result.best.best.paths.data())],
                           sc.graph.size()));
  }
}

TEST(MultiStartTest, RequiresAtLeastOneChain) {
  const CapacityGraph graph = random_graph(4, 1);
  MultiStartParams params;
  params.chains = 0;
  EXPECT_THROW(multi_start_annealing(graph, {}, 2, Objective{}, params),
               std::invalid_argument);
}

// --- thread pool ----------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<int> hits(200, 0);  // index-aligned slots: each written once
  std::atomic<int> count{0};
  pool.run_batch(hits.size(), [&](std::size_t i) {
    ++hits[i];
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(hits, std::vector<int>(200, 1));
}

TEST(ThreadPoolTest, RunBatchIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.run_batch(1, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
  pool.run_batch(2, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
  pool.run_batch(0, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 3);
}

// --- hashed host lookup ---------------------------------------------------------

TEST(CapacityGraphTest, IndexOfHashedLookup) {
  CapacityGraph g({40, 10, 30});
  EXPECT_EQ(g.index_of(40), std::optional<HostIndex>(0));
  EXPECT_EQ(g.index_of(10), std::optional<HostIndex>(1));
  EXPECT_EQ(g.index_of(30), std::optional<HostIndex>(2));
  EXPECT_EQ(g.index_of(99), std::nullopt);
}

TEST(CapacityGraphTest, IndexOfDuplicateKeepsFirst) {
  CapacityGraph g({7, 7, 9});
  EXPECT_EQ(g.index_of(7), std::optional<HostIndex>(0));
}

// --- warm start: scoped widest-path cache invalidation --------------------------

void expect_tree_equal(const WidestPathTree& a, const WidestPathTree& b, HostIndex source) {
  ASSERT_EQ(a.source, b.source) << "source " << source;
  ASSERT_EQ(a.width, b.width) << "widths diverged for source " << source;
  ASSERT_EQ(a.parent, b.parent) << "parents diverged for source " << source;
}

TEST(WarmStartWidestCacheTest, UntouchedSourceTreesSurviveSingleEdgeUpdate) {
  const CapacityGraph graph = random_graph(12, 91);
  AdjacencyView view(graph.bandwidth_matrix());
  WidestPathCache cache(view);
  for (HostIndex s = 0; s < graph.size(); ++s) cache.tree(s);
  ASSERT_EQ(cache.cached_trees(), graph.size());

  // Decrease edge 3 -> 7: only trees routing v=7 through u=3 may drop.
  const double before = view.capacity(3, 7);
  const double after = before * 0.25;
  std::size_t expected_drops = 0;
  for (HostIndex s = 0; s < graph.size(); ++s) {
    const WidestPathTree& t = cache.tree(s);
    if (t.parent[7] && *t.parent[7] == 3) ++expected_drops;
  }
  view.update(3, 7, after);
  const std::size_t dropped = cache.invalidate_edge(3, 7, before, after);
  EXPECT_EQ(dropped, expected_drops);
  EXPECT_EQ(cache.cached_trees(), graph.size() - dropped);
  EXPECT_LT(dropped, graph.size()) << "a single edge must not clear the whole cache";

  // The satellite contract: every survivor is bit-identical to a fresh
  // recompute over the updated view.
  for (HostIndex s = 0; s < graph.size(); ++s) {
    if (!cache.is_cached(s)) continue;
    expect_tree_equal(cache.tree(s), widest_paths(view, s), s);
  }
}

TEST(WarmStartWidestCacheTest, SurvivorsMatchFreshRecomputeOverRandomUpdates) {
  const std::size_t n = 10;
  const CapacityGraph graph = random_graph(n, 123);
  AdjacencyView view(graph.bandwidth_matrix());
  WidestPathCache cache(view);
  Rng rng(321);
  std::size_t survivors_checked = 0;
  for (std::size_t step = 0; step < 300; ++step) {
    for (HostIndex s = 0; s < n; ++s) cache.tree(s);  // refill misses
    const auto u = static_cast<HostIndex>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto v = static_cast<HostIndex>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    if (u == v) v = (v + 1) % n;
    const double before = view.capacity(u, v);
    // Mix decreases, increases, deletions (<= 0), and resurrections.
    const double after = rng.chance(0.1) ? 0.0 : rng.uniform(1e6, 600e6);
    view.update(u, v, after);
    cache.invalidate_edge(u, v, before, after);
    for (HostIndex s = 0; s < n; ++s) {
      if (!cache.is_cached(s)) continue;
      expect_tree_equal(cache.tree(s), widest_paths(view, s), s);
      ++survivors_checked;
    }
  }
  EXPECT_GT(survivors_checked, 300u) << "invalidation was effectively wholesale";
}

TEST(WarmStartWidestCacheTest, InvalidateSourceDropsExactlyOneTree) {
  const CapacityGraph graph = random_graph(6, 55);
  AdjacencyView view(graph.bandwidth_matrix());
  WidestPathCache cache(view);
  for (HostIndex s = 0; s < graph.size(); ++s) cache.tree(s);
  cache.invalidate_source(2);
  EXPECT_FALSE(cache.is_cached(2));
  EXPECT_EQ(cache.cached_trees(), graph.size() - 1);
  const std::size_t misses = cache.misses();
  cache.tree(2);
  EXPECT_EQ(cache.misses(), misses + 1);
}

// --- warm start: view delta protocol --------------------------------------------

TEST(WarmStartViewDeltaTest, TrackingRecordsValueChangesAndInvalidations) {
  wren::GlobalNetworkView view;
  view.update_bandwidth(1, 2, 100e6, 0);  // before tracking: not recorded
  view.enable_delta_tracking();
  EXPECT_TRUE(view.drain_delta().empty());

  view.update_bandwidth(1, 2, 100e6, 1);  // same value: no delta entry
  EXPECT_TRUE(view.drain_delta().empty());
  view.update_bandwidth(1, 2, 80e6, 2);
  view.update_latency(3, 4, 0.005, 2);
  view.invalidate(1, 2);
  view.update_bandwidth(5, 6, 50e6, 3);

  wren::ViewDelta delta = view.drain_delta();
  EXPECT_TRUE(view.drain_delta().empty()) << "drain must reset the accumulator";
  ASSERT_EQ(delta.pair_count(), 3u);
  // Invalidation supersedes the earlier bandwidth change on (1,2).
  const wren::PairDelta& p12 = delta.pairs().at({1, 2});
  EXPECT_TRUE(p12.invalidated);
  EXPECT_FALSE(p12.bandwidth_changed);
  const wren::PairDelta& p34 = delta.pairs().at({3, 4});
  EXPECT_TRUE(p34.latency_changed);
  EXPECT_EQ(p34.latency_s, 0.005);
  const wren::PairDelta& p56 = delta.pairs().at({5, 6});
  EXPECT_TRUE(p56.bandwidth_changed);
  EXPECT_EQ(p56.bandwidth_bps, 50e6);
}

TEST(WarmStartViewDeltaTest, HostInvalidationAndMerge) {
  wren::GlobalNetworkView view;
  view.enable_delta_tracking();
  view.update_bandwidth(1, 2, 10e6, 0);
  view.update_bandwidth(2, 3, 20e6, 0);
  view.update_bandwidth(3, 4, 30e6, 0);
  view.drain_delta();

  // A host drop notes every pair that touched the host, and only those.
  view.invalidate_host(2);
  const wren::ViewDelta delta = view.drain_delta();
  EXPECT_EQ(delta.pair_count(), 2u);
  EXPECT_TRUE(delta.pairs().at({1, 2}).invalidated);
  EXPECT_FALSE(delta.pairs().at({1, 2}).bandwidth_changed);
  EXPECT_TRUE(delta.pairs().at({2, 3}).invalidated);
  EXPECT_FALSE(delta.pairs().contains({3, 4}));
}

// --- warm start: optimizer ------------------------------------------------------

/// A cheap but real from-scratch solve used as the differential oracle.
Configuration cold_solve(const CapacityGraph& graph, const std::vector<Demand>& demands,
                         std::size_t n_vms, double* cost_out) {
  const GreedyResult gh = greedy_heuristic(graph, demands, n_vms);
  MultiStartParams params;
  params.chains = 2;
  params.threads = 1;
  params.seed = 4242;
  params.annealing.iterations = 800;
  params.annealing.trace_stride = 800;
  const MultiStartResult result =
      multi_start_annealing(graph, demands, n_vms, Objective{}, params, gh.configuration);
  if (cost_out != nullptr) *cost_out = result.best.best_evaluation.cost;
  return result.best.best;
}

TEST(WarmStartOptimizerTest, EmptyDeltaLeavesIncumbentBitIdentical) {
  const std::size_t n_hosts = 16;
  const std::size_t n_vms = 8;
  const CapacityGraph graph = random_graph(n_hosts, 7);
  Rng demand_rng(8);
  const std::vector<Demand> demands = mixed_demands(n_vms, demand_rng);
  const Configuration conf = cold_solve(graph, demands, n_vms, nullptr);

  WarmStartOptimizer warm;
  warm.adopt(graph, demands, n_vms, conf);
  const double cost = warm.evaluation().cost;

  const WarmAdaptStats stats = warm.adapt(wren::ViewDelta{}, demands, Rng(999));
  EXPECT_EQ(stats.patched_edges, 0u);
  EXPECT_EQ(stats.rate_changes, 0u);
  EXPECT_EQ(stats.burst_iterations, 0u);
  EXPECT_EQ(warm.evaluation().cost, cost);
  EXPECT_EQ(warm.incumbent().mapping, conf.mapping);
  EXPECT_EQ(warm.incumbent().paths, conf.paths);
}

TEST(WarmStartOptimizerTest, DifferentialWalkTracksFromScratch) {
  const std::size_t n_hosts = 16;
  const std::size_t n_vms = 8;
  CapacityGraph graph = random_graph(n_hosts, 17);  // mutable mirror of the "true" network
  Rng demand_rng(18);
  const std::vector<Demand> demands = mixed_demands(n_vms, demand_rng);

  WarmStartOptimizer warm;
  warm.adopt(graph, demands, n_vms, cold_solve(graph, demands, n_vms, nullptr));

  Rng rng(19);
  constexpr double kTolerance = 0.2;  // warm cost >= (1 - tol) * cold cost
  std::size_t oracle_checks = 0;
  for (std::size_t step = 0; step < 1000; ++step) {
    // One random single-entry delta: a directed pair's bandwidth moves.
    const auto u = static_cast<HostIndex>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_hosts) - 1));
    auto v = static_cast<HostIndex>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_hosts) - 1));
    if (u == v) v = (v + 1) % n_hosts;
    const double bw = rng.uniform(5e6, 500e6);
    graph.set_bandwidth(u, v, bw);
    wren::ViewDelta delta;
    delta.note_bandwidth(graph.host(u), graph.host(v), bw);

    const WarmAdaptStats stats =
        warm.adapt(delta, demands, Rng(1000 + static_cast<std::uint64_t>(step)));
    EXPECT_EQ(stats.delta_pairs, 1u);
    EXPECT_GE(stats.cost_after, stats.cost_before) << "step " << step;
    EXPECT_EQ(warm.graph().bandwidth(u, v), bw);

    // The committed incumbent must score exactly what the evaluator claims.
    const Evaluation check = evaluate(warm.graph(), warm.demands(), warm.incumbent());
    ASSERT_EQ(warm.evaluation().cost, check.cost) << "step " << step;

    // Differential oracle every few steps (the cold solve dominates runtime).
    if (step % 25 == 0) {
      double cold_cost = 0;
      cold_solve(graph, demands, n_vms, &cold_cost);
      ASSERT_GT(cold_cost, 0.0) << "oracle degenerate at step " << step;
      EXPECT_GE(warm.evaluation().cost, (1.0 - kTolerance) * cold_cost)
          << "warm drifted away from from-scratch at step " << step;
      ++oracle_checks;
    }
  }
  EXPECT_EQ(oracle_checks, 40u);
}

TEST(WarmStartOptimizerTest, RateDriftIsPatchedInPlace) {
  const std::size_t n_hosts = 12;
  const std::size_t n_vms = 6;
  const CapacityGraph graph = random_graph(n_hosts, 29);
  Rng demand_rng(30);
  std::vector<Demand> demands = mixed_demands(n_vms, demand_rng);
  WarmStartOptimizer warm;
  warm.adopt(graph, demands, n_vms, cold_solve(graph, demands, n_vms, nullptr));

  demands[0].rate_bps *= 2.5;  // VTTIF reports a hotter flow
  demands[3].rate_bps *= 0.1;
  const WarmAdaptStats stats = warm.adapt(wren::ViewDelta{}, demands, Rng(31));
  EXPECT_EQ(stats.rate_changes, 2u);
  EXPECT_GT(stats.burst_iterations, 0u);
  EXPECT_EQ(warm.demands()[0].rate_bps, demands[0].rate_bps);
  const Evaluation check = evaluate(warm.graph(), demands, warm.incumbent());
  EXPECT_EQ(warm.evaluation().cost, check.cost);
}

TEST(WarmStartOptimizerTest, InvalidatedPairFallsBackToConfiguredCapacity) {
  // The fallback is the default the adopted graph was built with.
  const CapacityGraph measured = random_graph(10, 47);
  CapacityGraph graph(measured.hosts(), 123e6, 0.002);
  for (HostIndex i = 0; i < graph.size(); ++i) {
    for (HostIndex j = 0; j < graph.size(); ++j) {
      if (i == j) continue;
      graph.set_bandwidth(i, j, measured.bandwidth(i, j));
      graph.set_latency(i, j, measured.latency(i, j));
    }
  }
  Rng demand_rng(48);
  const std::vector<Demand> demands = mixed_demands(5, demand_rng);
  WarmStartOptimizer warm;
  warm.adopt(graph, demands, 5, cold_solve(graph, demands, 5, nullptr));

  wren::ViewDelta delta;
  delta.note_invalidated(graph.host(2), graph.host(5));
  warm.adapt(delta, demands, Rng(49));
  EXPECT_EQ(warm.graph().bandwidth(2, 5), 123e6);
  EXPECT_EQ(warm.graph().latency(2, 5), 0.002);
}

TEST(WarmStartOptimizerTest, CompatibilityGuards) {
  const CapacityGraph graph = random_graph(8, 61);
  Rng demand_rng(62);
  const std::vector<Demand> demands = mixed_demands(4, demand_rng);
  WarmStartOptimizer warm;
  EXPECT_FALSE(warm.has_incumbent());
  EXPECT_FALSE(warm.compatible(graph.hosts(), demands, 4));

  warm.adopt(graph, demands, 4, cold_solve(graph, demands, 4, nullptr));
  EXPECT_TRUE(warm.compatible(graph.hosts(), demands, 4));

  std::vector<Demand> drifted = demands;
  drifted[0].rate_bps += 1e6;  // rates may drift...
  EXPECT_TRUE(warm.compatible(graph.hosts(), drifted, 4));
  drifted[0].dst = (drifted[0].dst + 1) % 4;  // ...endpoints may not
  EXPECT_FALSE(warm.compatible(graph.hosts(), drifted, 4));

  std::vector<net::NodeId> fewer_hosts = graph.hosts();
  fewer_hosts.pop_back();  // a daemon died
  EXPECT_FALSE(warm.compatible(fewer_hosts, demands, 4));
  EXPECT_FALSE(warm.compatible(graph.hosts(), demands, 5));

  // Delta-size guard: 8 hosts -> 56 directed pairs; default threshold 25%.
  wren::ViewDelta small;
  small.note_bandwidth(graph.host(0), graph.host(1), 1e6);
  EXPECT_TRUE(warm.delta_acceptable(small));
  wren::ViewDelta big;
  for (HostIndex i = 0; i < 8; ++i) {
    for (HostIndex j = 0; j < 8; ++j) {
      if (i != j) big.note_bandwidth(graph.host(i), graph.host(j), 1e6);
    }
  }
  EXPECT_FALSE(warm.delta_acceptable(big));
}

TEST(WarmStartOptimizerTest, WideDeltaIsCappedAtNeighborhood) {
  const std::size_t n_hosts = 96;
  const std::size_t n_vms = 80;
  const CapacityGraph graph = random_graph(n_hosts, 83);
  Rng demand_rng(84);
  const std::vector<Demand> demands = mixed_demands(n_vms, demand_rng);
  ASSERT_GT(demands.size(), 64u);

  const GreedyResult gh = greedy_heuristic(graph, demands, n_vms);
  WarmStartOptimizer a;
  WarmStartOptimizer b;
  a.adopt(graph, demands, n_vms, gh.configuration);
  b.adopt(graph, demands, n_vms, gh.configuration);

  // Move the first hop of every demand's path: the delta touches all of
  // them, more than the 64-demand neighborhood cap.
  wren::ViewDelta delta;
  Rng rng(85);
  for (const Path& p : gh.configuration.paths) {
    ASSERT_GE(p.size(), 2u);
    delta.note_bandwidth(graph.host(p[0]), graph.host(p[1]), rng.uniform(5e6, 500e6));
  }

  const WarmAdaptStats sa = a.adapt(delta, demands, Rng(86));
  const WarmAdaptStats sb = b.adapt(delta, demands, Rng(86));
  EXPECT_EQ(sa.target_demands, 64u);
  EXPECT_GE(sa.cost_after, sa.cost_before);
  EXPECT_EQ(sa.cost_after, sb.cost_after);
  EXPECT_EQ(a.incumbent().mapping, b.incumbent().mapping);
  EXPECT_EQ(a.incumbent().paths, b.incumbent().paths);
  // Warm bursts are path-only: the mapping (hence VM placement) is stable.
  EXPECT_EQ(a.incumbent().mapping, gh.configuration.mapping);
}

}  // namespace
}  // namespace vw::vadapt
