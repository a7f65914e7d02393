#pragma once

// The challenge-cluster harness: the paper's two-domain cluster
// (topo::make_challenge_network) under a full VirtuosoSystem, the fig10
// workload placed badly on it, and the chaos script that cuts the
// inter-domain link under the first adaptation's migrations.
//
// On a UDP overlay there is no TCP for Wren to read, so these runs fill the
// Proxy's view from the topology's ground truth instead: feed_view() is the
// one place that oracle lives.

#include <vector>

#include "net/fault.hpp"
#include "sim/simulator.hpp"
#include "topo/testbed.hpp"
#include "vadapt/problem.hpp"
#include "virtuoso/system.hpp"
#include "vm/apps.hpp"

namespace vw::virtuoso {

/// Write `truth`'s bandwidth and latency into the system's network view for
/// every ordered pair of `hosts` whose physical path is up, stamped now().
/// Host i of `hosts` is node i of `truth`.
void feed_view(VirtuosoSystem& system, const std::vector<net::NodeId>& hosts,
               const vadapt::CapacityGraph& truth);

/// The challenge network with a VNET daemon on every host, the first one as
/// Proxy, bootstrapped on `overlay`. No simulated time has passed when the
/// constructor returns.
struct ChallengeCluster {
  explicit ChallengeCluster(const SystemConfig& config = {},
                            vnet::LinkProtocol overlay = vnet::LinkProtocol::kUdp);

  /// feed_view() with topo::make_challenge_scenario()'s ground truth.
  void feed_truth();

  sim::Simulator sim;
  topo::ChallengeNetwork tb;
  VirtuosoSystem system;
};

/// The fig10 workload, started. vm-0..vm-3 sit on d1[0], d1[1], d2[0] and
/// d2[1], so the heavy trio (8 Mb/s all-to-all among VMs 0-2) straddles the
/// 10 Mb/s inter-domain link; VM 3 and VM 0 exchange 0.5 Mb/s each way.
/// Each VM has an 8 MiB image, small enough to migrate across that link in
/// about 10 s.
struct Fig10Workload {
  explicit Fig10Workload(ChallengeCluster& cluster);

  std::vector<vm::VirtualMachine*> vms;
  vm::apps::MatrixTrafficApp app;
};

/// The fig10 chaos script over the workload: the failure model on
/// (staleness, heartbeats, daemon timeout, control timeouts), feed_truth()
/// every 2 s, greedy auto-adaptation with a 10 s cooldown, and the
/// switch1<->switch2 link down over [kOutageFrom, kOutageUntil). `config`
/// carries what a run chooses (seed, telemetry, capture, warm start); the
/// failure-model fields are overwritten. No simulated time has passed when
/// the constructor returns, so callers attach their hooks before run_until.
struct ChaosScenario : ChallengeCluster {
  static constexpr SimTime kOutageFrom = seconds(5.0);
  static constexpr SimTime kOutageUntil = seconds(23.0);

  explicit ChaosScenario(SystemConfig config,
                         vnet::LinkProtocol overlay = vnet::LinkProtocol::kUdp);

  Fig10Workload workload;
  sim::PeriodicTask feeder;
  net::FaultPlan faults;
};

}  // namespace vw::virtuoso
