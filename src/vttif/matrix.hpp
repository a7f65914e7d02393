#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "vnet/ethernet.hpp"

// Traffic matrices over VM MAC addresses: the raw material VTTIF aggregates
// and the application-topology representation it infers.

namespace vw::vttif {

/// Sparse directed matrix of per-VM-pair traffic (bytes or bytes/sec).
class TrafficMatrix {
 public:
  using Key = std::pair<vnet::MacAddress, vnet::MacAddress>;

  void add(vnet::MacAddress src, vnet::MacAddress dst, double value);
  double at(vnet::MacAddress src, vnet::MacAddress dst) const;
  void merge(const TrafficMatrix& other);
  void scale(double factor);
  void clear() { entries_.clear(); }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  double max_entry() const;
  double total() const;

  const std::map<Key, double>& entries() const { return entries_; }

 private:
  std::map<Key, double> entries_;
};

/// One inferred application-topology edge.
struct TopologyEdge {
  vnet::MacAddress src = 0;
  vnet::MacAddress dst = 0;
  double rate_bps = 0;          ///< smoothed traffic rate
  double normalized = 0;        ///< rate / max rate in the topology

  friend bool operator==(const TopologyEdge& a, const TopologyEdge& b) {
    return a.src == b.src && a.dst == b.dst;
  }
};

/// The recovered application communication topology.
struct Topology {
  std::vector<TopologyEdge> edges;  ///< sorted by (src, dst)

  bool same_shape(const Topology& other) const;
  /// Largest relative weight change on a shared edge vs `other` (0 when no
  /// shared edges).
  double max_relative_change(const Topology& other) const;
};

/// Topology pruning threshold, as a fraction of the largest entry.
inline constexpr double kPruneFraction = 0.1;
static_assert(kPruneFraction >= 0 && kPruneFraction <= 1, "prune fraction outside [0,1]");

/// Normalize by the max entry and prune entries below kPruneFraction of the
/// max — VTTIF's "normalization and pruning techniques".
Topology infer_topology(const TrafficMatrix& rates);

}  // namespace vw::vttif
