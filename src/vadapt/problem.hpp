#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"

// VADAPT's formal optimization problem (paper §4.1).
//
// Given the complete directed graph G=(H,E) of hosts running VNET daemons
// with per-edge available bandwidth (from Wren) and latency, plus the VM
// traffic 3-tuples A=(S,D,C) (from VTTIF), choose a configuration
// CONF=(M,P): an injective VM->host mapping and a forwarding path for every
// communicating VM pair, maximizing the total residual bottleneck capacity
//    Eq.1:  sum over paths p of b(p),  b(p) = min over e in p of rc_e
// subject to rc_e >= 0, where rc_e = c_e - (demand routed over e).
// The multi-constraint variant additionally rewards low path latency:
//    Eq.3:  sum over paths p of [ b(p) + c / l(p) ].
// The problem is NP-complete (reduction from edge-disjoint paths).

namespace vw::vadapt {

using HostIndex = std::size_t;
using VmIndex = std::size_t;

/// One VTTIF traffic tuple: VM src sends to VM dst at rate_bps.
struct Demand {
  VmIndex src = 0;
  VmIndex dst = 0;
  double rate_bps = 0;
};

/// Dense capacity view of the VNET host graph (complete directed graph).
class CapacityGraph {
 public:
  CapacityGraph(std::vector<net::NodeId> hosts, double default_bw_bps = 0,
                double default_latency_s = 0);

  std::size_t size() const { return hosts_.size(); }
  net::NodeId host(HostIndex i) const { return hosts_.at(i); }
  const std::vector<net::NodeId>& hosts() const { return hosts_; }
  std::optional<HostIndex> index_of(net::NodeId host) const;

  void set_bandwidth(HostIndex from, HostIndex to, double bps) { bw_[from][to] = bps; }
  void set_latency(HostIndex from, HostIndex to, double s) { lat_[from][to] = s; }
  void set_symmetric_bandwidth(HostIndex a, HostIndex b, double bps);
  void set_symmetric_latency(HostIndex a, HostIndex b, double s);

  double bandwidth(HostIndex from, HostIndex to) const { return bw_[from][to]; }
  double latency(HostIndex from, HostIndex to) const { return lat_[from][to]; }

  const std::vector<std::vector<double>>& bandwidth_matrix() const { return bw_; }

  /// The capacity and latency every off-diagonal pair started with (what a
  /// pair falls back to when its measurement is lost).
  double default_bandwidth() const { return default_bw_; }
  double default_latency() const { return default_lat_; }

 private:
  std::vector<net::NodeId> hosts_;
  double default_bw_;
  double default_lat_;
  /// host id -> index, built once in the constructor (first occurrence wins,
  /// matching the linear scan it replaced).
  std::unordered_map<net::NodeId, HostIndex> index_;
  std::vector<std::vector<double>> bw_;   ///< [from][to] bits/sec
  std::vector<std::vector<double>> lat_;  ///< [from][to] seconds
};

/// A forwarding path: host-index sequence from M(src VM) to M(dst VM).
using Path = std::vector<HostIndex>;

struct Configuration {
  /// mapping[vm] = host index; injective (at most one VM per host).
  std::vector<HostIndex> mapping;
  /// One path per demand, aligned with the demand list used to evaluate.
  std::vector<Path> paths;
};

enum class ObjectiveKind {
  kResidualBandwidth,         ///< Eq. 1
  kResidualBandwidthLatency,  ///< Eq. 3
};

struct Objective {
  ObjectiveKind kind = ObjectiveKind::kResidualBandwidth;
  /// The constant c of Eq. 3 (bits/sec * seconds): each path contributes
  /// latency_weight / l(p) in addition to its residual bottleneck.
  double latency_weight = 1000.0;
};

struct Evaluation {
  double cost = 0;        ///< the CEF value (higher is better)
  bool feasible = false;  ///< all residual capacities non-negative
  double min_residual_bps = 0;
};

/// Check mapping validity: size == n_vms, all in range, injective.
bool valid_mapping(const std::vector<HostIndex>& mapping, std::size_t n_hosts);

/// Check a path: non-empty, starts/ends at the demand's mapped hosts, hops
/// within range, no repeated vertex.
bool valid_path(const Path& path, const Configuration& conf, const Demand& demand,
                std::size_t n_hosts);

/// Residual capacities after routing every demand over its path.
std::vector<std::vector<double>> residual_capacities(const CapacityGraph& graph,
                                                     const std::vector<Demand>& demands,
                                                     const Configuration& conf);

/// The cost evaluation function (CEF): Eq. 1 or Eq. 3 over the configuration.
Evaluation evaluate(const CapacityGraph& graph, const std::vector<Demand>& demands,
                    const Configuration& conf, const Objective& objective = {});

}  // namespace vw::vadapt
