#include "vttif/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace vw::vttif {

void TrafficMatrix::add(vnet::MacAddress src, vnet::MacAddress dst, double value) {
  // Traffic is a nonnegative quantity; a negative or NaN contribution would
  // silently skew every topology inferred from this matrix.
  VW_REQUIRE(value >= 0 && std::isfinite(value),
             "TrafficMatrix::add: bad traffic value ", value);
  if (value == 0) return;
  entries_[{src, dst}] += value;
}

double TrafficMatrix::at(vnet::MacAddress src, vnet::MacAddress dst) const {
  auto it = entries_.find({src, dst});
  return it == entries_.end() ? 0.0 : it->second;
}

void TrafficMatrix::merge(const TrafficMatrix& other) {
  for (const auto& [key, value] : other.entries_) entries_[key] += value;
}

void TrafficMatrix::scale(double factor) {
  VW_REQUIRE(factor >= 0 && std::isfinite(factor),
             "TrafficMatrix::scale: bad factor ", factor);
  for (auto& [key, value] : entries_) value *= factor;
}

double TrafficMatrix::max_entry() const {
  double m = 0;
  for (const auto& [key, value] : entries_) m = std::max(m, value);
  return m;
}

double TrafficMatrix::total() const {
  double t = 0;
  for (const auto& [key, value] : entries_) t += value;
  return t;
}

bool Topology::same_shape(const Topology& other) const {
  if (edges.size() != other.edges.size()) return false;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (!(edges[i] == other.edges[i])) return false;
  }
  return true;
}

double Topology::max_relative_change(const Topology& other) const {
  double worst = 0;
  for (const TopologyEdge& e : edges) {
    auto it = std::find(other.edges.begin(), other.edges.end(), e);
    if (it == other.edges.end()) continue;
    const double base = std::max(it->rate_bps, 1.0);
    worst = std::max(worst, std::abs(e.rate_bps - it->rate_bps) / base);
  }
  return worst;
}

Topology infer_topology(const TrafficMatrix& rates) {
  Topology topo;
  const double max = rates.max_entry();
  if (max <= 0) return topo;
  const double cutoff = kPruneFraction * max;
  for (const auto& [key, value] : rates.entries()) {
    if (value < cutoff) continue;
    topo.edges.push_back(TopologyEdge{key.first, key.second, value, value / max});
  }
  // std::map iteration is already (src, dst)-sorted; same_shape and
  // max_relative_change both lean on that order.
  VW_AUDIT(std::is_sorted(topo.edges.begin(), topo.edges.end(),
                          [](const TopologyEdge& a, const TopologyEdge& b) {
                            return std::pair{a.src, a.dst} < std::pair{b.src, b.dst};
                          }),
           "infer_topology: edge list not (src, dst)-sorted");
  return topo;
}

}  // namespace vw::vttif
