#pragma once

#include <vector>

#include "net/link.hpp"
#include "sim/simulator.hpp"

// Ground-truth instrumentation, standing in for the paper's SNMP polling of
// the congested router: samples a channel's byte counters at a fixed period
// and reports the residual (available) bandwidth over each interval.

namespace vw::net {

struct ProbeSample {
  SimTime time;            ///< end of the sampling interval
  double utilized_bps;     ///< bits/s serialized during the interval
  double available_bps;    ///< capacity - utilized (floored at 0)
};

class LinkProbe {
 public:
  LinkProbe(sim::Simulator& sim, Channel& channel, SimTime period);

  const std::vector<ProbeSample>& samples() const { return samples_; }
  const Channel& channel() const { return channel_; }

  /// Available bandwidth from the most recent sample; capacity before the
  /// first sample completes.
  double current_available_bps() const;

  void stop() { task_.stop(); }

 private:
  void sample();

  sim::Simulator& sim_;
  Channel& channel_;
  SimTime period_;
  std::uint64_t last_bytes_ = 0;
  std::vector<ProbeSample> samples_;
  sim::PeriodicTask task_;
};

}  // namespace vw::net
