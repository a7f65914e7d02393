#include "wren/offline.hpp"

#include <algorithm>

#include "wren/analyzer.hpp"

namespace vw::wren {

std::vector<PacketRecord> filter_useful(const std::vector<PacketRecord>& records) {
  std::vector<PacketRecord> out;
  out.reserve(records.size());
  for (const PacketRecord& r : records) {
    if (is_useful(r)) out.push_back(r);
  }
  return out;
}

OfflineResult analyze_offline(const std::vector<PacketRecord>& records) {
  OfflineResult result;
  FlowAnalyzer flows(WrenParams{},
                     [&result](const net::FlowKey& flow, const SicObservation& observation) {
                       result.observations.push_back({flow, observation});
                     });

  // The online timer, replayed: an analyzer created at t = 0 steps at every
  // multiple of kCollectPeriod, after collecting the records stamped by then.
  SimTime tick = kCollectPeriod;
  const auto step_before = [&](SimTime t) {
    for (; tick < t; tick += kCollectPeriod) flows.step(tick);
  };
  SimTime last_time = 0;
  for (const PacketRecord& r : records) {
    step_before(r.timestamp);
    last_time = std::max(last_time, r.timestamp);
    flows.add(r);
  }
  // Step through the first multiple at or after last + kMaxTrainGap +
  // kPendingTimeout + one period (step_before stops short of its bound, hence
  // the second period), so no run or train is left pending.
  if (!records.empty()) {
    step_before(last_time + kMaxTrainGap + kPendingTimeout + 2 * kCollectPeriod);
  }

  for (const auto& [flow, state] : flows.flows()) {
    if (auto est = state.estimator.estimate_bps()) result.estimates_bps.push_back({flow, *est});
  }
  result.flows_analyzed = flows.flows().size();

  std::stable_sort(result.observations.begin(), result.observations.end(),
                   [](const auto& a, const auto& b) { return a.second.time < b.second.time; });
  return result;
}

}  // namespace vw::wren
