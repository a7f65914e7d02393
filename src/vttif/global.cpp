#include "vttif/global.hpp"

#include <algorithm>
#include <string>

namespace vw::vttif {

GlobalVttif::GlobalVttif(sim::Simulator& sim)
    : sim_(sim), task_(sim, kAggregationPeriod, [this] { close_slot(); }) {}

void GlobalVttif::set_obs(const obs::Scope& scope) {
  obs_ = scope;
  c_updates_ = scope.counter("vttif.updates.received");
  c_changes_ = scope.counter("vttif.changes.reported");
  g_edges_ = scope.gauge("vttif.topology.edges");
}

void GlobalVttif::update_from(net::NodeId, const TrafficMatrix& bytes) {
  ++updates_;
  obs::add(c_updates_);
  current_slot_.merge(bytes);
}

void GlobalVttif::close_slot() {
  window_.push_back(std::move(current_slot_));
  current_slot_ = TrafficMatrix{};
  while (window_.size() > kWindowSlots) window_.pop_front();

  const Topology topo = current_topology();
  if (topo.edges.empty()) return;

  const bool interesting =
      !last_reported_ || !topo.same_shape(*last_reported_) ||
      topo.max_relative_change(*last_reported_) > kChangeThreshold;
  if (!interesting) return;

  const SimTime now = sim_.now();
  if (last_reported_ && now - last_report_time_ < kReactionCooldown) {
    return;  // damping: swallow rapid-fire changes to avoid oscillation
  }
  last_reported_ = topo;
  last_report_time_ = now;
  ++changes_;
  obs::add(c_changes_);
  obs::set(g_edges_, static_cast<double>(topo.edges.size()));
  obs_.instant("vttif.topology_change", "vttif",
               {{"edges", std::to_string(topo.edges.size())}});
  if (on_change_) on_change_(topo);
}

TrafficMatrix GlobalVttif::smoothed_rate_matrix() const {
  TrafficMatrix sum;
  for (const TrafficMatrix& slot : window_) sum.merge(slot);
  const double window_seconds =
      to_seconds(kAggregationPeriod) * static_cast<double>(std::max<std::size_t>(window_.size(), 1));
  sum.scale(1.0 / window_seconds);
  return sum;
}

Topology GlobalVttif::current_topology() const {
  return infer_topology(smoothed_rate_matrix());
}

}  // namespace vw::vttif
