#include "vadapt/warm_start.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.hpp"
#include "vadapt/perturb.hpp"

namespace vw::vadapt {

namespace {

/// Go cold when the delta touches more than this fraction of the host pair
/// space: the incumbent is no longer "mostly right".
constexpr double kMaxDeltaFraction = 0.25;
/// Cap on the burst's demand neighborhood.
constexpr std::size_t kMaxNeighborhood = 64;
/// Burst length before the min/max clamp.
constexpr std::size_t kBurstIterationsPerTarget = 200;
/// Bursts refine a near-optimal incumbent, so they start much cooler than a
/// from-scratch anneal (which starts at 0.1 of the initial cost).
constexpr double kTemperatureScale = 0.01;
constexpr double kCooling = 0.995;

}  // namespace

WarmStartOptimizer::WarmStartOptimizer(WarmStartParams params) : params_(params) {}

void WarmStartOptimizer::adopt(const CapacityGraph& graph, std::vector<Demand> demands,
                               std::size_t n_vms, Configuration conf,
                               const Objective& objective) {
  VW_REQUIRE(conf.mapping.size() == n_vms, "WarmStartOptimizer::adopt: mapping places ",
             conf.mapping.size(), " VMs, expected ", n_vms);
  graph_ = std::make_unique<CapacityGraph>(graph);
  eval_ = std::make_unique<IncrementalEvaluator>(*graph_, std::move(demands), objective);
  eval_->reset(std::move(conf));
  n_vms_ = n_vms;
}

bool WarmStartOptimizer::compatible(const std::vector<net::NodeId>& hosts,
                                    const std::vector<Demand>& demands,
                                    std::size_t n_vms) const {
  if (!has_incumbent()) return false;
  if (n_vms != n_vms_) return false;
  if (hosts != graph_->hosts()) return false;
  const std::vector<Demand>& mine = eval_->demands();
  if (demands.size() != mine.size()) return false;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i].src != mine[i].src || demands[i].dst != mine[i].dst) return false;
  }
  return true;
}

bool WarmStartOptimizer::delta_acceptable(const wren::ViewDelta& delta) const {
  if (!has_incumbent()) return false;
  const std::size_t n = graph_->size();
  const std::size_t pair_space = n > 1 ? n * (n - 1) : 1;
  return static_cast<double>(delta.pair_count()) <=
         kMaxDeltaFraction * static_cast<double>(pair_space);
}

void WarmStartOptimizer::apply_delta(const wren::ViewDelta& delta,
                                     std::vector<EdgePatch>& patches, WarmAdaptStats& stats) {
  for (const auto& [key, d] : delta.pairs()) {
    const auto u = graph_->index_of(key.first);
    const auto v = graph_->index_of(key.second);
    // Pairs touching hosts outside the incumbent's graph cannot affect it
    // (a genuinely changed host *set* fails compatible() and goes cold).
    if (!u || !v || *u == *v) continue;
    EdgePatch patch;
    patch.u = *u;
    patch.v = *v;
    patch.old_bandwidth = graph_->bandwidth(*u, *v);
    double bw = patch.old_bandwidth;
    double lat = graph_->latency(*u, *v);
    if (d.invalidated) {
      // The view lost this pair's measurement; the system would fall back
      // to the adopted graph's defaults when rebuilding it — mirror that.
      bw = graph_->default_bandwidth();
      lat = graph_->default_latency();
    }
    if (d.bandwidth_changed) bw = d.bandwidth_bps;
    if (d.latency_changed) lat = d.latency_s;
    patch.new_bandwidth = bw;
    if (bw == patch.old_bandwidth && lat == graph_->latency(*u, *v)) continue;
    graph_->set_bandwidth(*u, *v, bw);
    graph_->set_latency(*u, *v, lat);
    // Rescore exactly this edge and the demands routed over it — the
    // O(delta) heart of the warm path.
    eval_->refresh_edge(*u, *v);
    patches.push_back(patch);
    ++stats.patched_edges;
  }
}

std::vector<std::uint32_t> WarmStartOptimizer::select_targets(
    const std::vector<EdgePatch>& patches, const std::vector<std::uint32_t>& must_include) {
  std::vector<std::uint32_t> targets = must_include;
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  if (targets.size() >= kMaxNeighborhood) {
    targets.resize(kMaxNeighborhood);
    return targets;
  }

  // A widened edge can lift demands whose bottleneck sits below the edge's
  // new residual — rank those by potential gain and fill the remaining
  // neighborhood slots. One pass over the demand list (cheap next to any
  // burst; the patch list is already delta-sized).
  std::vector<EdgePatch> increased;
  for (const EdgePatch& p : patches) {
    if (p.new_bandwidth > p.old_bandwidth) increased.push_back(p);
  }
  if (!increased.empty()) {
    std::vector<std::pair<double, std::uint32_t>> candidates;  // (gain, id)
    const std::size_t n_demands = eval_->demands().size();
    for (std::uint32_t d = 0; d < n_demands; ++d) {
      if (std::binary_search(targets.begin(), targets.end(), d)) continue;
      double gain = 0;
      for (const EdgePatch& p : increased) {
        const double headroom = eval_->residual(p.u, p.v) - eval_->bottleneck(d);
        gain = std::max(gain, headroom);
      }
      if (gain > 0) candidates.push_back({gain, d});
    }
    std::sort(candidates.begin(), candidates.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;  // gain descending
      return a.second < b.second;                        // then id ascending
    });
    for (const auto& [gain, d] : candidates) {
      (void)gain;
      if (targets.size() >= kMaxNeighborhood) break;
      targets.push_back(d);
    }
    std::sort(targets.begin(), targets.end());
  }
  return targets;
}

std::size_t WarmStartOptimizer::run_burst(const std::vector<std::uint32_t>& targets,
                                          std::size_t iterations, Rng& rng) {
  if (targets.empty() || iterations == 0) return 0;
  const std::size_t n_hosts = graph_->size();

  double temperature = std::max(std::abs(eval_->evaluation().cost) * kTemperatureScale, 1.0);

  // Sparse state tracking: `original` snapshots a path on first touch;
  // `best_diff` snapshots every touched path at the best point seen. The
  // commit below replays the best through set_path, so the whole burst is
  // O(touched paths), never O(problem).
  std::map<std::uint32_t, Path> original;
  std::map<std::uint32_t, Path> best_diff;
  const double entry_cost = eval_->evaluation().cost;  // exact at burst entry
  Evaluation best = eval_->evaluation();
  Evaluation current = best;

  detail::PerturbScratch scratch;
  Path old_path;
  Path candidate;
  for (std::size_t iter = 0; iter < iterations; ++iter) {
    const std::uint32_t t = targets[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(targets.size()) - 1))];
    const Path& live = eval_->configuration().paths[t];
    old_path.assign(live.begin(), live.end());
    candidate.assign(live.begin(), live.end());
    const double u = rng.uniform(0.0, 3.0);
    if (u < 1.0) {
      detail::perturb_insert(candidate, n_hosts, rng, scratch);
    } else if (u < 2.0) {
      detail::perturb_delete(candidate, rng);
    } else {
      detail::perturb_swap(candidate, rng);
    }
    eval_->set_path(t, candidate);
    const Evaluation cand_eval = eval_->evaluation();

    const double dE = cand_eval.cost - current.cost;
    const bool accept = dE >= 0 || rng.chance(std::exp(dE / temperature));
    if (accept) {
      original.try_emplace(t, old_path);
      current = cand_eval;
      if (current.cost > best.cost) {
        best = current;
        best_diff.clear();
        for (const auto& [d, orig] : original) {
          (void)orig;
          const Path& p = eval_->configuration().paths[d];
          best_diff.emplace(d, p);
        }
      }
    } else {
      eval_->set_path(t, old_path);  // O(path length) revert
    }
    temperature *= kCooling;
  }

  // Commit the best configuration seen: demands touched after the best
  // snapshot revert to their original path, the rest to their best path.
  for (const auto& [d, orig] : original) {
    const auto it = best_diff.find(d);
    const Path& desired = it != best_diff.end() ? it->second : orig;
    if (eval_->configuration().paths[d] != desired) eval_->set_path(d, desired);
  }
  // Deferred-mode cost tracking can drift from the canonical sum by float
  // rounding, so the monotone guarantee is enforced on exact numbers: resum
  // the committed state, and if the tracked "best" exactly re-summed lands
  // below the entry cost, fall back to the entry configuration — whose
  // resum reproduces entry_cost bit-for-bit (set_path reverts are exact).
  eval_->exact_refresh();
  if (eval_->evaluation().cost < entry_cost) {
    for (const auto& [d, orig] : original) {
      if (eval_->configuration().paths[d] != orig) eval_->set_path(d, orig);
    }
    eval_->exact_refresh();
  }
  VW_ENSURE(eval_->evaluation().cost >= entry_cost,
            "warm burst: committed cost below burst entry");
  return iterations;
}

WarmAdaptStats WarmStartOptimizer::adapt(const wren::ViewDelta& delta,
                                         const std::vector<Demand>& demands, Rng rng) {
  VW_REQUIRE(has_incumbent(), "WarmStartOptimizer::adapt: no incumbent adopted");
  VW_REQUIRE(demands.size() == eval_->demands().size(),
             "WarmStartOptimizer::adapt: demand count changed (", demands.size(), " vs ",
             eval_->demands().size(), ") — caller must check compatible()");
  obs::EventTracer::Span span = params_.obs.span("vadapt.warm", "vadapt");

  WarmAdaptStats stats;
  stats.delta_pairs = delta.pair_count();

  // Deferred cost for the whole adapt: patching and bursting pay O(touched)
  // per mutation instead of an O(D) resum each; the exits below restore the
  // canonical (bit-exact) evaluation.
  eval_->set_deferred_cost(true);

  // 1. Patch: apply the delta to the live graph + evaluator.
  std::vector<EdgePatch> patches;
  apply_delta(delta, patches, stats);

  std::vector<std::uint32_t> must_include;
  for (const EdgePatch& p : patches) {
    for (std::uint32_t id : eval_->edge_users(p.u, p.v)) must_include.push_back(id);
  }

  // VTTIF rate drift: patch rates in place, and pull the drifted demand
  // plus everything sharing its edges into the neighborhood.
  for (std::size_t i = 0; i < demands.size(); ++i) {
    VW_REQUIRE(demands[i].src == eval_->demands()[i].src &&
                   demands[i].dst == eval_->demands()[i].dst,
               "WarmStartOptimizer::adapt: demand ", i,
               " endpoints changed — caller must check compatible()");
    if (demands[i].rate_bps == eval_->demands()[i].rate_bps) continue;
    eval_->set_demand_rate(i, demands[i].rate_bps);
    ++stats.rate_changes;
    must_include.push_back(static_cast<std::uint32_t>(i));
    const Path& p = eval_->configuration().paths[i];
    for (std::size_t k = 0; k + 1 < p.size(); ++k) {
      for (std::uint32_t id : eval_->edge_users(p[k], p[k + 1])) must_include.push_back(id);
    }
  }

  // Nothing actually changed: the incumbent stands bit-identical, and no
  // randomness is consumed (the empty-delta contract).
  if (patches.empty() && stats.rate_changes == 0) {
    eval_->set_deferred_cost(false);  // resum of untouched state: identical
    stats.cost_before = stats.cost_after = eval_->evaluation().cost;
    return stats;
  }

  // One canonical resum after the patch phase: the exact baseline the
  // monotone-commit guarantee is measured against.
  eval_->exact_refresh();
  stats.cost_before = eval_->evaluation().cost;

  // 2. Select the neighborhood; 3. burst it.
  const std::vector<std::uint32_t> targets = select_targets(patches, must_include);
  stats.target_demands = targets.size();
  stats.burst_iterations = run_burst(
      targets,
      std::clamp(targets.size() * kBurstIterationsPerTarget, kMinBurstIterations,
                 kMaxBurstIterations),
      rng);
  eval_->set_deferred_cost(false);
  stats.cost_after = eval_->evaluation().cost;
  // The burst commits its best-seen, which starts at the patched
  // incumbent: a warm adapt never makes the patched configuration worse.
  VW_ENSURE(stats.cost_after >= stats.cost_before,
            "warm adapt: committed cost ", stats.cost_after, " below patched incumbent ",
            stats.cost_before);

  if (params_.obs.metrics != nullptr) {
    obs::add(params_.obs.counter("vadapt.warm.adapts"));
    obs::add(params_.obs.counter("vadapt.warm.patched_edges"), stats.patched_edges);
    obs::add(params_.obs.counter("vadapt.warm.burst_iterations"), stats.burst_iterations);
    obs::record(params_.obs.histogram("vadapt.warm.targets"),
                static_cast<double>(stats.target_demands));
  }
  span.arg("delta_pairs", std::to_string(stats.delta_pairs));
  span.arg("targets", std::to_string(stats.target_demands));
  span.end();
  return stats;
}

}  // namespace vw::vadapt
