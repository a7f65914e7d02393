#pragma once

// The Figure 2 measurement run, built once for every test, bench and
// example that measures on the controlled-load LAN.

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "topo/testbed.hpp"
#include "transport/sources.hpp"
#include "transport/stack.hpp"
#include "util/rng.hpp"
#include "wren/analyzer.hpp"

namespace vw::topo {

/// make_lan_testbed() with a transport stack, an OnlineAnalyzer on the
/// sender and the cross source's CBR stream (1000 B datagrams to
/// receiver:7000) started at `cross_bps`; 0 leaves it idle until
/// set_rate_bps. No simulated time has passed when the constructor returns.
struct LanMeasurement {
  static constexpr double kCapacityBps = 100e6;

  explicit LanMeasurement(double cross_bps = 0, const wren::WrenParams& params = {});

  /// Start the monitored application, sender -> receiver:9000.
  transport::MessageSource& send(std::vector<transport::MessagePhase> phases,
                                 std::uint32_t repeat = 1, Rng rng = Rng(0));

  /// The true available bandwidth of the switch -> receiver bottleneck now.
  double truth_bps() const { return kCapacityBps - cross.rate_bps(); }

  sim::Simulator sim;
  LanTestbed tb;
  transport::TransportStack stack;
  wren::OnlineAnalyzer analyzer;
  transport::CbrUdpSource cross;
  std::unique_ptr<transport::MessageSource> app;
};

}  // namespace vw::topo
