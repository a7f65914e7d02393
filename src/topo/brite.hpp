#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "util/rng.hpp"
#include "vadapt/problem.hpp"

// BRITE-style Waxman flat-router topology generation (paper §4.4.4: a
// 256-node BRITE physical topology, Waxman flat-router model, bandwidth
// uniform in [10, 1024] units, out-degree 2).
//
// Nodes are placed uniformly on a plane and added incrementally; each new
// node attaches to `out_degree` existing nodes chosen with probability
// proportional to the Waxman factor alpha * exp(-d / (beta * L)).

namespace vw::topo {

struct BriteParams {
  std::size_t nodes = 256;
  std::size_t out_degree = 2;
  double alpha = 0.15;
  double beta = 0.2;
  double plane_size = 1000.0;
  double bw_min_mbps = 10.0;
  double bw_max_mbps = 1024.0;
  /// Per-unit-distance propagation delay (seconds); latency = dist * this.
  double delay_per_unit_s = 10e-6;
};

struct BriteEdge {
  std::size_t a = 0;
  std::size_t b = 0;
  double bandwidth_bps = 0;
  double latency_s = 0;
};

class BriteTopology {
 public:
  BriteTopology(const BriteParams& params, Rng rng);

  std::size_t node_count() const { return n_; }
  const std::vector<BriteEdge>& edges() const { return edges_; }
  const std::vector<std::pair<double, double>>& positions() const { return positions_; }

  /// True when every node can reach every other.
  bool connected() const;

  /// Routed path metrics between two nodes (shortest-latency routing, as IP
  /// would): bottleneck bandwidth and total latency. Returns {0, inf} when
  /// unreachable.
  std::pair<double, double> path_metrics(std::size_t from, std::size_t to) const;

  /// Choose `count` distinct random nodes to run VNET daemons and build the
  /// overlay capacity graph: each overlay link is the underlying routed
  /// path, with its bottleneck bandwidth and summed latency.
  vadapt::CapacityGraph overlay_capacity_graph(std::size_t count, Rng& rng) const;

 private:
  void compute_routes();

  std::size_t n_;
  std::vector<std::pair<double, double>> positions_;
  std::vector<BriteEdge> edges_;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj_;  ///< (peer, edge idx)
  // Routing tables: for each source, predecessor on shortest-latency path.
  std::vector<std::vector<std::int32_t>> parent_;
  std::vector<std::vector<double>> dist_;
};

/// A packet-level net::Network instantiated from a BRITE topology: one
/// router per BRITE node (links carry the generated bandwidth and latency),
/// plus `host_count` end hosts attached to distinct randomly chosen routers
/// over access links. It is the physical substrate of fig_federation_scale
/// and of loopbench's brite_fleet workload.
struct BriteNetwork {
  std::unique_ptr<net::Network> network;
  std::vector<net::NodeId> routers;      ///< index-aligned with BRITE nodes
  std::vector<net::NodeId> hosts;        ///< the attached end hosts
  std::vector<std::size_t> host_router;  ///< BRITE node each host attaches to
};

/// Builds the network above on `sim` and computes routes. Propagation delays
/// are clamped to >= 1 ns, so every hop takes nonzero virtual time. The
/// choice of host attachment points is a pure function of `rng`.
BriteNetwork make_brite_network(sim::Simulator& sim, const BriteTopology& topo,
                                std::size_t host_count, Rng& rng,
                                const net::LinkConfig& access = {1e9, micros(5), 256 * 1024});

}  // namespace vw::topo
