#pragma once

#include <functional>

#include "sim/simulator.hpp"
#include "vnet/daemon.hpp"
#include "vttif/matrix.hpp"

// The per-daemon half of VTTIF: observes every Ethernet frame the daemon
// captures from its local VMs, accumulates a local traffic matrix, and
// periodically ships it toward the Proxy's global aggregator.

namespace vw::vttif {

inline constexpr SimTime kLocalPeriod = seconds(1.0);  ///< local matrix push period

class LocalVttif {
 public:
  /// Receives (reporting daemon's host, bytes accumulated this interval).
  using PushFn = std::function<void(net::NodeId, const TrafficMatrix&)>;

  /// Pushes the accumulated matrix every kLocalPeriod.
  LocalVttif(sim::Simulator& sim, vnet::VnetDaemon& daemon, PushFn push);

  LocalVttif(const LocalVttif&) = delete;
  LocalVttif& operator=(const LocalVttif&) = delete;

  const TrafficMatrix& pending() const { return pending_; }
  std::uint64_t updates_sent() const { return updates_; }
  vnet::VnetDaemon& daemon() { return daemon_; }

  /// Attach telemetry (vttif.local.pushes counter).
  void set_obs(const obs::Scope& scope) { c_pushes_ = scope.counter("vttif.local.pushes"); }

 private:
  void push_update();

  vnet::VnetDaemon& daemon_;
  PushFn push_;
  TrafficMatrix pending_;
  std::uint64_t updates_ = 0;
  obs::Counter* c_pushes_ = nullptr;
  sim::PeriodicTask task_;
};

}  // namespace vw::vttif
