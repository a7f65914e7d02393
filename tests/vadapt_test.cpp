// Tests for VADAPT: the problem formalization (residual capacities, CEF),
// the adapted widest-path Dijkstra (property-tested against brute force),
// the greedy heuristic, simulated annealing and exhaustive search — plus
// the paper's challenge scenario, which has a known optimal placement.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "topo/testbed.hpp"
#include "util/rng.hpp"
#include "vadapt/annealing.hpp"
#include "vadapt/enumerate.hpp"
#include "vadapt/greedy.hpp"
#include "vadapt/problem.hpp"
#include "vadapt/widest_path.hpp"

namespace vw::vadapt {
namespace {

CapacityGraph small_graph() {
  // 0 --100-- 1 --50-- 2 ; 0 --10-- 2 (all symmetric, Mbps).
  CapacityGraph g({0, 1, 2});
  g.set_symmetric_bandwidth(0, 1, 100e6);
  g.set_symmetric_bandwidth(1, 2, 50e6);
  g.set_symmetric_bandwidth(0, 2, 10e6);
  g.set_symmetric_latency(0, 1, 0.001);
  g.set_symmetric_latency(1, 2, 0.001);
  g.set_symmetric_latency(0, 2, 0.010);
  return g;
}

// --- problem / evaluation ------------------------------------------------------

TEST(ProblemTest, ValidMappingChecks) {
  EXPECT_TRUE(valid_mapping({0, 2, 1}, 3));
  EXPECT_FALSE(valid_mapping({0, 0}, 3));   // not injective
  EXPECT_FALSE(valid_mapping({0, 5}, 3));   // out of range
  EXPECT_TRUE(valid_mapping({}, 3));
}

TEST(ProblemTest, ValidPathChecks) {
  Configuration conf;
  conf.mapping = {0, 2};
  const Demand d{0, 1, 1e6};
  EXPECT_TRUE(valid_path({0, 1, 2}, conf, d, 3));
  EXPECT_TRUE(valid_path({0, 2}, conf, d, 3));
  EXPECT_FALSE(valid_path({0, 1}, conf, d, 3));     // wrong endpoint
  EXPECT_FALSE(valid_path({0, 1, 1, 2}, conf, d, 3));  // repeated vertex
  EXPECT_FALSE(valid_path({}, conf, d, 3));
}

TEST(ProblemTest, ResidualCapacitySubtraction) {
  const CapacityGraph g = small_graph();
  const std::vector<Demand> demands{{0, 1, 30e6}};
  Configuration conf;
  conf.mapping = {0, 2};              // VM0 on host0, VM1 on host2
  conf.paths = {{0, 1, 2}};           // via host1
  const auto residual = residual_capacities(g, demands, conf);
  EXPECT_DOUBLE_EQ(residual[0][1], 70e6);
  EXPECT_DOUBLE_EQ(residual[1][2], 20e6);
  EXPECT_DOUBLE_EQ(residual[1][0], 100e6);  // reverse untouched
  EXPECT_DOUBLE_EQ(residual[0][2], 10e6);   // direct edge untouched
}

TEST(ProblemTest, EvaluateBottleneckSum) {
  const CapacityGraph g = small_graph();
  const std::vector<Demand> demands{{0, 1, 30e6}};
  Configuration conf;
  conf.mapping = {0, 2};
  conf.paths = {{0, 1, 2}};
  const Evaluation ev = evaluate(g, demands, conf);
  // Residuals along the path: 70 and 20 -> bottleneck 20 Mbps.
  EXPECT_DOUBLE_EQ(ev.cost, 20e6);
  EXPECT_TRUE(ev.feasible);
}

TEST(ProblemTest, InfeasibleWhenDemandExceedsCapacity) {
  const CapacityGraph g = small_graph();
  const std::vector<Demand> demands{{0, 1, 60e6}};
  Configuration conf;
  conf.mapping = {0, 2};
  conf.paths = {{0, 1, 2}};
  const Evaluation ev = evaluate(g, demands, conf);
  EXPECT_FALSE(ev.feasible);
  EXPECT_LT(ev.min_residual_bps, 0);
}

TEST(ProblemTest, LatencyObjectiveRewardsShortPaths) {
  const CapacityGraph g = small_graph();
  const std::vector<Demand> demands{{0, 1, 1e6}};
  Configuration direct, detour;
  direct.mapping = detour.mapping = {0, 2};
  direct.paths = {{0, 2}};       // 10ms
  detour.paths = {{0, 1, 2}};    // 2ms total
  Objective obj;
  obj.kind = ObjectiveKind::kResidualBandwidthLatency;
  obj.latency_weight = 1e6;
  const double direct_latency_term = 1e6 / 0.010;
  const double detour_latency_term = 1e6 / 0.002;
  const Evaluation ev_direct = evaluate(g, demands, direct, obj);
  const Evaluation ev_detour = evaluate(g, demands, detour, obj);
  EXPECT_NEAR(ev_direct.cost, 9e6 + direct_latency_term, 1);
  EXPECT_NEAR(ev_detour.cost, 49e6 + detour_latency_term, 1);
}

TEST(ProblemTest, SharedEdgeAccumulatesLoad) {
  const CapacityGraph g = small_graph();
  const std::vector<Demand> demands{{0, 1, 30e6}, {2, 1, 30e6}};
  Configuration conf;
  conf.mapping = {0, 2, 1};  // VM0@h0, VM1@h2, VM2@h1
  conf.paths = {{0, 1, 2}, {1, 2}};
  const auto residual = residual_capacities(g, demands, conf);
  EXPECT_DOUBLE_EQ(residual[1][2], 50e6 - 60e6);  // both demands cross 1->2
}

// --- widest path ------------------------------------------------------------------

TEST(WidestPathTest, PrefersHighCapacityDetour) {
  const CapacityGraph g = small_graph();
  const auto path = widest_path_between(g.bandwidth_matrix(), 0, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (Path{0, 1, 2}));  // 50 Mbps via 1 beats 10 Mbps direct
  EXPECT_DOUBLE_EQ(widest_path_width(g.bandwidth_matrix(), 0, 2), 50e6);
}

TEST(WidestPathTest, SourceToSelf) {
  const CapacityGraph g = small_graph();
  const auto path = widest_path_between(g.bandwidth_matrix(), 1, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, Path{1});
}

TEST(WidestPathTest, UnreachableReturnsNullopt) {
  std::vector<std::vector<double>> cap(3, std::vector<double>(3, 0.0));
  cap[0][1] = 5.0;
  EXPECT_FALSE(widest_path_between(cap, 0, 2).has_value());
  EXPECT_DOUBLE_EQ(widest_path_width(cap, 0, 2), 0.0);
}

TEST(WidestPathTest, NegativeResidualsActAsAbsentEdges) {
  auto g = small_graph();
  g.set_symmetric_bandwidth(0, 1, -5e6);  // exhausted by earlier routing
  const auto path = widest_path_between(g.bandwidth_matrix(), 0, 1);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (Path{0, 2, 1}));  // forced around
}

// Property test: widest path width must match brute-force enumeration of all
// simple paths on random graphs.
class WidestPathPropertyTest : public ::testing::TestWithParam<int> {};

double brute_force_width(const std::vector<std::vector<double>>& cap, HostIndex src,
                         HostIndex dst) {
  const std::size_t n = cap.size();
  std::vector<HostIndex> perm;
  std::vector<bool> used(n, false);
  double best = 0;
  std::function<void(HostIndex, double)> dfs = [&](HostIndex at, double width) {
    if (at == dst) {
      best = std::max(best, width);
      return;
    }
    for (HostIndex v = 0; v < n; ++v) {
      if (used[v] || cap[at][v] <= 0) continue;
      used[v] = true;
      dfs(v, std::min(width, cap[at][v]));
      used[v] = false;
    }
  };
  used[src] = true;
  dfs(src, std::numeric_limits<double>::infinity());
  return best;
}

TEST_P(WidestPathPropertyTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 6;
  std::vector<std::vector<double>> cap(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && rng.chance(0.6)) cap[i][j] = rng.uniform(1.0, 100.0);
    }
  }
  for (HostIndex src = 0; src < n; ++src) {
    const WidestPathTree tree = widest_paths(cap, src);
    for (HostIndex dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      const double expect = brute_force_width(cap, src, dst);
      const double got = tree.parent[dst] ? tree.width[dst] : 0.0;
      EXPECT_NEAR(got, expect, 1e-9) << "src=" << src << " dst=" << dst << " seed=" << GetParam();
      // The extracted path's actual width must equal the claimed width.
      if (auto path = tree.path_to(dst); path && path->size() >= 2) {
        double path_width = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k + 1 < path->size(); ++k) {
          path_width = std::min(path_width, cap[(*path)[k]][(*path)[k + 1]]);
        }
        EXPECT_NEAR(path_width, got, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, WidestPathPropertyTest, ::testing::Range(1, 9));

// --- greedy heuristic ------------------------------------------------------------

TEST(GreedyTest, ProducesValidConfiguration) {
  const CapacityGraph g = small_graph();
  const std::vector<Demand> demands{{0, 1, 5e6}, {1, 0, 5e6}};
  const GreedyResult result = greedy_heuristic(g, demands, 2);
  EXPECT_TRUE(valid_mapping(result.configuration.mapping, 3));
  ASSERT_EQ(result.configuration.paths.size(), demands.size());
  for (std::size_t d = 0; d < demands.size(); ++d) {
    EXPECT_TRUE(valid_path(result.configuration.paths[d], result.configuration, demands[d], 3));
  }
  EXPECT_TRUE(result.evaluation.feasible);
}

TEST(GreedyTest, HeaviestPairGetsWidestHostPair) {
  const CapacityGraph g = small_graph();
  // Single heavy demand: the two VMs must land on the 0-1 pair (100 Mbps).
  const std::vector<Demand> demands{{0, 1, 5e6}};
  const auto mapping = greedy_mapping(g, demands, 2);
  const bool on_wide_pair = (mapping[0] == 0 && mapping[1] == 1) ||
                            (mapping[0] == 1 && mapping[1] == 0);
  EXPECT_TRUE(on_wide_pair) << mapping[0] << "," << mapping[1];
}

TEST(GreedyTest, PathsAvoidSaturatedEdges) {
  // Two demands between the same mapped hosts: the second should detour
  // when the first consumes the direct edge.
  CapacityGraph g({0, 1, 2});
  g.set_symmetric_bandwidth(0, 1, 10e6);
  g.set_symmetric_bandwidth(1, 2, 100e6);
  g.set_symmetric_bandwidth(0, 2, 100e6);
  const std::vector<Demand> demands{{0, 1, 9e6}, {0, 1, 9e6}};
  const std::vector<HostIndex> mapping{0, 1};
  const auto paths = greedy_paths(g, demands, mapping);
  // One of them must take the 0-2-1 detour.
  const bool detoured = (paths[0] == Path{0, 2, 1}) || (paths[1] == Path{0, 2, 1});
  EXPECT_TRUE(detoured);
}

TEST(GreedyTest, MoreVmsThanHostsThrows) {
  const CapacityGraph g = small_graph();
  EXPECT_THROW(greedy_mapping(g, {}, 4), std::invalid_argument);
}

TEST(GreedyTest, VmsWithoutTrafficStillMapped) {
  const CapacityGraph g = small_graph();
  const std::vector<Demand> demands{{0, 1, 1e6}};
  const auto mapping = greedy_mapping(g, demands, 3);  // VM2 has no demands
  EXPECT_TRUE(valid_mapping(mapping, 3));
  EXPECT_EQ(mapping.size(), 3u);
}

// --- simulated annealing -----------------------------------------------------------

TEST(AnnealingTest, RandomConfigurationIsValid) {
  const CapacityGraph g = small_graph();
  const std::vector<Demand> demands{{0, 1, 1e6}};
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const Configuration conf = random_configuration(g, demands, 2, rng);
    EXPECT_TRUE(valid_mapping(conf.mapping, 3));
    EXPECT_TRUE(valid_path(conf.paths[0], conf, demands[0], 3));
  }
}

TEST(AnnealingTest, StatesRemainValidThroughPerturbation) {
  const topo::ChallengeScenario sc = topo::make_challenge_scenario();
  AnnealingParams params;
  params.iterations = 500;
  const AnnealingResult result = simulated_annealing(sc.graph, sc.demands, sc.n_vms,
                                                     Objective{}, params, Rng(7));
  EXPECT_TRUE(valid_mapping(result.best.mapping, sc.graph.size()));
  for (std::size_t d = 0; d < sc.demands.size(); ++d) {
    EXPECT_TRUE(valid_path(result.best.paths[d], result.best, sc.demands[d], sc.graph.size()));
  }
}

TEST(AnnealingTest, BestIsMonotoneOverTrace) {
  const topo::ChallengeScenario sc = topo::make_challenge_scenario();
  AnnealingParams params;
  params.iterations = 1000;
  const AnnealingResult result = simulated_annealing(sc.graph, sc.demands, sc.n_vms,
                                                     Objective{}, params, Rng(11));
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].best_cost, result.trace[i - 1].best_cost);
  }
  EXPECT_GE(result.best_evaluation.cost, result.trace.front().current_cost);
}

TEST(AnnealingTest, SeededWithGreedyNeverWorseThanSeed) {
  const topo::ChallengeScenario sc = topo::make_challenge_scenario();
  const GreedyResult gh = greedy_heuristic(sc.graph, sc.demands, sc.n_vms);
  AnnealingParams params;
  params.iterations = 2000;
  const AnnealingResult sa = simulated_annealing(sc.graph, sc.demands, sc.n_vms, Objective{},
                                                 params, Rng(13), gh.configuration);
  EXPECT_GE(sa.best_evaluation.cost, gh.evaluation.cost);
}

TEST(AnnealingTest, TraceStrideReducesPoints) {
  const topo::ChallengeScenario sc = topo::make_challenge_scenario();
  AnnealingParams params;
  params.iterations = 1000;
  params.trace_stride = 100;
  const AnnealingResult result = simulated_annealing(sc.graph, sc.demands, sc.n_vms,
                                                     Objective{}, params, Rng(3));
  EXPECT_EQ(result.trace.size(), 10u);
}

// --- exhaustive search ---------------------------------------------------------

TEST(ExhaustiveTest, MappingCount) {
  EXPECT_EQ(mapping_count(4, 4), 24u);
  EXPECT_EQ(mapping_count(6, 4), 360u);
  EXPECT_EQ(mapping_count(3, 4), 0u);
}

TEST(ExhaustiveTest, FindsKnownOptimum) {
  // Two VMs with one heavy demand on the small graph: the optimum maps them
  // to the 100 Mbps pair.
  const CapacityGraph g = small_graph();
  const std::vector<Demand> demands{{0, 1, 5e6}};
  const ExhaustiveResult result = exhaustive_search(g, demands, 2);
  EXPECT_EQ(result.mappings_examined, 6u);
  const auto& m = result.best.mapping;
  const bool on_wide_pair = (m[0] == 0 && m[1] == 1) || (m[0] == 1 && m[1] == 0);
  EXPECT_TRUE(on_wide_pair);
  EXPECT_DOUBLE_EQ(result.best_evaluation.cost, 95e6);
}

TEST(ExhaustiveTest, SpaceGuardThrows) {
  CapacityGraph g(std::vector<net::NodeId>(12, 0), 1.0, 0.001);
  EXPECT_THROW(exhaustive_search(g, {}, 12, Objective{}, 1000), std::invalid_argument);
}

// --- the challenge scenario (paper Figure 9) -----------------------------------------

TEST(ChallengeTest, OptimalPlacesHeavyVmsOnFastCluster) {
  const topo::ChallengeScenario sc = topo::make_challenge_scenario();
  const ExhaustiveResult opt = exhaustive_search(sc.graph, sc.demands, sc.n_vms);
  // VMs 0-2 (heavy all-to-all) must be on domain 2 (hosts 3,4,5).
  for (std::size_t vm = 0; vm < 3; ++vm) {
    EXPECT_GE(opt.best.mapping[vm], 3u) << "heavy VM " << vm << " not on the fast cluster";
  }
  // VM 3 (light) ends up on domain 1.
  EXPECT_LT(opt.best.mapping[3], 3u);
}

TEST(ChallengeTest, GreedyFindsOptimalMapping) {
  // The paper reports GH finds the optimal mapping for this scenario.
  const topo::ChallengeScenario sc = topo::make_challenge_scenario();
  const GreedyResult gh = greedy_heuristic(sc.graph, sc.demands, sc.n_vms);
  for (std::size_t vm = 0; vm < 3; ++vm) {
    EXPECT_GE(gh.configuration.mapping[vm], 3u);
  }
  EXPECT_LT(gh.configuration.mapping[3], 3u);
  const ExhaustiveResult opt = exhaustive_search(sc.graph, sc.demands, sc.n_vms);
  EXPECT_NEAR(gh.evaluation.cost, opt.best_evaluation.cost,
              0.05 * std::abs(opt.best_evaluation.cost));
}

TEST(ChallengeTest, AnnealingWithGreedyReachesOptimum) {
  const topo::ChallengeScenario sc = topo::make_challenge_scenario();
  const GreedyResult gh = greedy_heuristic(sc.graph, sc.demands, sc.n_vms);
  const ExhaustiveResult opt = exhaustive_search(sc.graph, sc.demands, sc.n_vms);
  AnnealingParams params;
  params.iterations = 3000;
  const AnnealingResult sa = simulated_annealing(sc.graph, sc.demands, sc.n_vms, Objective{},
                                                 params, Rng(21), gh.configuration);
  EXPECT_GE(sa.best_evaluation.cost, 0.99 * opt.best_evaluation.cost);
}

}  // namespace
}  // namespace vw::vadapt
