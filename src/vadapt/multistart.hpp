#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/thread_pool.hpp"
#include "vadapt/annealing.hpp"
#include "vadapt/problem.hpp"

// Parallel multi-start simulated annealing. K independent SA chains run
// concurrently on a thread pool; each chain draws from its own RNG stream,
// derived by splitting the caller's seed (RngService-style FNV/splitmix
// hashing over the chain index), so the outcome is a pure function of
// (problem, params) — the same best configuration is produced whether the
// chains run on one thread or sixteen. Results land in per-chain slots and
// the merge picks the highest CEF, breaking ties toward the lowest chain
// index, which keeps the reduction deterministic too. Given an initial
// configuration (e.g. the greedy solution), chain 0 starts from it and the
// other chains from independent random configurations.

namespace vw::vadapt {

struct MultiStartParams {
  std::size_t chains = 4;    ///< number of independent SA chains (>= 1)
  /// Worker threads, capped at `chains`; 0 = one per hardware thread. At
  /// one thread the chains run serially on the caller.
  std::size_t threads = 0;
  std::uint64_t seed = 1;    ///< split into per-chain streams
  AnnealingParams annealing; ///< shared by every chain
  /// Persistent worker pool (borrowed). When set and more than one thread
  /// is asked for, chains run as one batch on it — callers that adapt
  /// repeatedly (VirtuosoSystem's control loop) stop paying thread
  /// spawn/join per adaptation. When null, a pool is constructed per call.
  /// The outcome is identical either way: chains write index-aligned slots.
  ThreadPool* pool = nullptr;
};

/// The worker count multi_start_annealing uses for `params`:
/// min(threads, chains), with threads = 0 meaning one per hardware thread.
std::size_t multi_start_threads(const MultiStartParams& params);

struct ChainOutcome {
  std::uint64_t seed = 0;      ///< the chain's derived RNG seed
  Evaluation best_evaluation;  ///< best CEF the chain reached
};

struct MultiStartResult {
  AnnealingResult best;              ///< the winning chain's full result
  std::size_t best_chain = 0;        ///< index of the winning chain
  std::vector<ChainOutcome> chains;  ///< per-chain outcomes, index-aligned
};

MultiStartResult multi_start_annealing(const CapacityGraph& graph,
                                       const std::vector<Demand>& demands, std::size_t n_vms,
                                       const Objective& objective,
                                       const MultiStartParams& params,
                                       std::optional<Configuration> initial = std::nullopt);

}  // namespace vw::vadapt
