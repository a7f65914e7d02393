#pragma once

#include "net/network.hpp"
#include "sim/simulator.hpp"

// Scripted failure injection for chaos scenarios: a FaultPlan schedules
// link outages against the physical network at fixed virtual times, so a
// failure scenario is reproducible bit-for-bit under a given seed. All times
// are absolute simulation times; scheduling in the past is a contract
// violation.

namespace vw::net {

class FaultPlan {
 public:
  FaultPlan(sim::Simulator& sim, Network& network) : sim_(sim), network_(network) {}

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Take both directions of the a<->b link down at `at`.
  void link_down(SimTime at, NodeId a, NodeId b);

  /// Bring both directions of the a<->b link back up at `at`.
  void link_up(SimTime at, NodeId a, NodeId b);

  /// Outage window: down at `from`, back up at `until` (> from).
  void link_outage(SimTime from, SimTime until, NodeId a, NodeId b);

 private:
  void schedule(SimTime at, NodeId a, NodeId b, bool down);

  sim::Simulator& sim_;
  Network& network_;
};

}  // namespace vw::net
