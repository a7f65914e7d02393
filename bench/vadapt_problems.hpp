#pragma once

// The VADAPT problems the micro benches solve, in one place so that every
// benchmark sees the same graphs and demands for the same seeds.

#include <cstdint>
#include <vector>

#include "topo/brite.hpp"
#include "util/rng.hpp"
#include "vadapt/problem.hpp"

namespace vw::bench {

/// A complete n-host graph: per directed pair, bandwidth uniform in
/// [10, 1000] Mb/s and latency in [0.1, 50] ms, drawn from Rng(seed) in row
/// order.
inline vadapt::CapacityGraph random_graph(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<net::NodeId> hosts(n);
  for (std::size_t i = 0; i < n; ++i) hosts[i] = static_cast<net::NodeId>(i);
  vadapt::CapacityGraph g(hosts);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      g.set_bandwidth(i, j, rng.uniform(10e6, 1000e6));
      g.set_latency(i, j, rng.uniform(0.0001, 0.05));
    }
  }
  return g;
}

/// The overlay of n daemons on an n-node BRITE topology generated from
/// Rng(seed), daemons picked with Rng(seed + 1).
inline vadapt::CapacityGraph brite_overlay(std::size_t n, std::uint64_t seed) {
  topo::BriteParams params;
  params.nodes = n;
  topo::BriteTopology topo(params, Rng(seed));
  Rng pick(seed + 1);
  return topo.overlay_capacity_graph(n, pick);
}

/// n_vms VMs in a ring: VM i sends `rate` to VM i + 1.
inline std::vector<vadapt::Demand> ring_demands(std::size_t n_vms, double rate) {
  std::vector<vadapt::Demand> d;
  for (std::size_t i = 0; i < n_vms; ++i) {
    d.push_back({static_cast<vadapt::VmIndex>(i), static_cast<vadapt::VmIndex>((i + 1) % n_vms),
                 rate});
  }
  return d;
}

}  // namespace vw::bench
