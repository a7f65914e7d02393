#include "net/probe.hpp"

#include <algorithm>

namespace vw::net {

LinkProbe::LinkProbe(sim::Simulator& sim, Channel& channel, SimTime period)
    : sim_(sim),
      channel_(channel),
      period_(period),
      task_(sim, period, [this] { sample(); }) {}

void LinkProbe::sample() {
  const std::uint64_t bytes = channel_.stats().bytes_serialized;
  const double interval_s = to_seconds(period_);
  const double utilized = static_cast<double>(bytes - last_bytes_) * 8.0 / interval_s;
  last_bytes_ = bytes;
  const double available = std::max(0.0, channel_.capacity_bps() - utilized);
  samples_.push_back(ProbeSample{sim_.now(), utilized, available});
}

double LinkProbe::current_available_bps() const {
  if (samples_.empty()) return channel_.capacity_bps();
  return samples_.back().available_bps;
}

}  // namespace vw::net
