#include "vadapt/problem.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace vw::vadapt {

CapacityGraph::CapacityGraph(std::vector<net::NodeId> hosts, double default_bw_bps,
                             double default_latency_s)
    : hosts_(std::move(hosts)),
      default_bw_(default_bw_bps),
      default_lat_(default_latency_s),
      bw_(hosts_.size(), std::vector<double>(hosts_.size(), default_bw_bps)),
      lat_(hosts_.size(), std::vector<double>(hosts_.size(), default_latency_s)) {
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    bw_[i][i] = 0;
    lat_[i][i] = 0;
  }
  index_.reserve(hosts_.size());
  for (std::size_t i = 0; i < hosts_.size(); ++i) index_.emplace(hosts_[i], i);
}

std::optional<HostIndex> CapacityGraph::index_of(net::NodeId host) const {
  const auto it = index_.find(host);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

void CapacityGraph::set_symmetric_bandwidth(HostIndex a, HostIndex b, double bps) {
  VW_REQUIRE(a < size() && b < size(), "CapacityGraph: host index out of range");
  bw_[a][b] = bps;
  bw_[b][a] = bps;
}

void CapacityGraph::set_symmetric_latency(HostIndex a, HostIndex b, double s) {
  VW_REQUIRE(a < size() && b < size(), "CapacityGraph: host index out of range");
  lat_[a][b] = s;
  lat_[b][a] = s;
}

bool valid_mapping(const std::vector<HostIndex>& mapping, std::size_t n_hosts) {
  // Flat scratch instead of a node-allocating std::set: these run inside
  // VW_AUDIT on optimizer hot paths. thread_local keeps them allocation-free
  // after warm-up and safe under the multi-start thread pool.
  thread_local std::vector<char> used;
  used.assign(n_hosts, 0);
  for (HostIndex h : mapping) {
    if (h >= n_hosts) return false;
    if (used[h]) return false;
    used[h] = 1;
  }
  return true;
}

bool valid_path(const Path& path, const Configuration& conf, const Demand& demand,
                std::size_t n_hosts) {
  if (path.empty()) return false;
  if (demand.src >= conf.mapping.size() || demand.dst >= conf.mapping.size()) return false;
  if (path.front() != conf.mapping[demand.src]) return false;
  if (path.back() != conf.mapping[demand.dst]) return false;
  thread_local std::vector<char> seen;
  seen.assign(n_hosts, 0);
  for (HostIndex h : path) {
    if (h >= n_hosts) return false;
    if (seen[h]) return false;
    seen[h] = 1;
  }
  return true;
}

std::vector<std::vector<double>> residual_capacities(const CapacityGraph& graph,
                                                     const std::vector<Demand>& demands,
                                                     const Configuration& conf) {
  VW_REQUIRE(conf.paths.size() == demands.size(),
             "residual_capacities: path/demand count mismatch (", conf.paths.size(), " vs ",
             demands.size(), ")");
  VW_AUDIT(valid_mapping(conf.mapping, graph.size()),
           "residual_capacities: mapping not injective/in range");
  auto residual = graph.bandwidth_matrix();
  for (std::size_t d = 0; d < demands.size(); ++d) {
    const Path& p = conf.paths[d];
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      residual[p[i]][p[i + 1]] -= demands[d].rate_bps;
    }
  }
  return residual;
}

Evaluation evaluate(const CapacityGraph& graph, const std::vector<Demand>& demands,
                    const Configuration& conf, const Objective& objective) {
  VW_AUDIT([&] {
    for (std::size_t d = 0; d < demands.size(); ++d) {
      if (!valid_path(conf.paths[d], conf, demands[d], graph.size())) return false;
    }
    return true;
  }(),
           "evaluate: configuration carries an invalid forwarding path");
  const auto residual = residual_capacities(graph, demands, conf);

  Evaluation ev;
  ev.min_residual_bps = std::numeric_limits<double>::infinity();
  double cost = 0;
  for (std::size_t d = 0; d < demands.size(); ++d) {
    const Path& p = conf.paths[d];
    double bottleneck = std::numeric_limits<double>::infinity();
    double path_latency = 0;
    for (std::size_t i = 0; i + 1 < p.size(); ++i) {
      bottleneck = std::min(bottleneck, residual[p[i]][p[i + 1]]);
      path_latency += graph.latency(p[i], p[i + 1]);
    }
    if (p.size() < 2) bottleneck = 0;  // degenerate (should not occur: mapping injective)
    cost += bottleneck;
    if (objective.kind == ObjectiveKind::kResidualBandwidthLatency && path_latency > 0) {
      cost += objective.latency_weight / path_latency;
    }
    ev.min_residual_bps = std::min(ev.min_residual_bps, bottleneck);
  }
  ev.cost = cost;
  ev.feasible = ev.min_residual_bps >= 0;
  if (demands.empty()) {
    ev.min_residual_bps = 0;
    ev.feasible = true;
  }
  return ev;
}

}  // namespace vw::vadapt
