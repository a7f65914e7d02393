#include "wren/view.hpp"

#include <cmath>

#include "util/check.hpp"

namespace vw::wren {

bool GlobalNetworkView::valid_measurement(double v) { return std::isfinite(v) && v >= 0; }

bool GlobalNetworkView::update_bandwidth(net::NodeId from, net::NodeId to, double bps,
                                         SimTime at) {
  VW_REQUIRE(at >= 0, "measurement timestamp must be non-negative");
  if (!valid_measurement(bps)) {
    ++rejected_reports_;
    obs::add(c_rejected_);
    return false;
  }
  PathMeasurement& m = entries_[{from, to}];
  if (track_delta_ && (!m.has_bandwidth || m.bandwidth_bps != bps)) {
    delta_.note_bandwidth(from, to, bps);
  }
  m.bandwidth_bps = bps;
  m.has_bandwidth = true;
  m.updated_at = at;
  return true;
}

bool GlobalNetworkView::update_latency(net::NodeId from, net::NodeId to, double seconds,
                                       SimTime at) {
  VW_REQUIRE(at >= 0, "measurement timestamp must be non-negative");
  if (!valid_measurement(seconds)) {
    ++rejected_reports_;
    obs::add(c_rejected_);
    return false;
  }
  PathMeasurement& m = entries_[{from, to}];
  if (track_delta_ && (!m.has_latency || m.latency_s != seconds)) {
    delta_.note_latency(from, to, seconds);
  }
  m.latency_s = seconds;
  m.has_latency = true;
  m.updated_at = at;
  return true;
}

void GlobalNetworkView::set_obs(const obs::Scope& scope) {
  c_rejected_ = scope.counter("wren.view.rejected_reports");
}

bool GlobalNetworkView::is_fresh(const PathMeasurement& m) const {
  if (staleness_horizon_ <= 0 || !clock_) return true;
  return clock_() - m.updated_at <= staleness_horizon_;
}

std::optional<double> GlobalNetworkView::bandwidth_bps(net::NodeId from, net::NodeId to) const {
  auto it = entries_.find({from, to});
  if (it == entries_.end() || !it->second.has_bandwidth) return std::nullopt;
  if (!is_fresh(it->second)) return std::nullopt;
  return it->second.bandwidth_bps;
}

std::optional<double> GlobalNetworkView::latency_seconds(net::NodeId from, net::NodeId to) const {
  auto it = entries_.find({from, to});
  if (it == entries_.end() || !it->second.has_latency) return std::nullopt;
  if (!is_fresh(it->second)) return std::nullopt;
  return it->second.latency_s;
}

void GlobalNetworkView::invalidate(net::NodeId from, net::NodeId to) {
  auto it = entries_.find({from, to});
  if (it == entries_.end()) return;
  if (track_delta_) delta_.note_invalidated(from, to);
  entries_.erase(it);
}

std::size_t GlobalNetworkView::invalidate_host(net::NodeId host) {
  std::size_t removed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.first == host || it->first.second == host) {
      if (track_delta_) delta_.note_invalidated(it->first.first, it->first.second);
      it = entries_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::size_t GlobalNetworkView::expire_stale() {
  if (staleness_horizon_ <= 0 || !clock_) return 0;
  std::size_t removed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (!is_fresh(it->second)) {
      if (track_delta_) delta_.note_invalidated(it->first.first, it->first.second);
      it = entries_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

}  // namespace vw::wren
