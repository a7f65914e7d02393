#include "wren/offline.hpp"

#include <algorithm>
#include <deque>
#include <map>

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

std::vector<PacketRecord> merge_traces(const std::vector<std::vector<PacketRecord>>& shards) {
  // Decorate with (shard, index) so equal timestamps order deterministically
  // by shard list position — the merge is a pure function of its inputs.
  struct Tagged {
    const PacketRecord* record;
    std::size_t shard;
    std::size_t index;
  };
  std::size_t total = 0;
  for (const auto& s : shards) total += s.size();
  std::vector<Tagged> tagged;
  tagged.reserve(total);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (std::size_t i = 0; i < shards[s].size(); ++i) {
      tagged.push_back(Tagged{&shards[s][i], s, i});
    }
  }
  std::sort(tagged.begin(), tagged.end(), [](const Tagged& a, const Tagged& b) {
    if (a.record->timestamp != b.record->timestamp) {
      return a.record->timestamp < b.record->timestamp;
    }
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.index < b.index;
  });
  std::vector<PacketRecord> out;
  out.reserve(total);
  for (const Tagged& t : tagged) out.push_back(*t.record);
  return out;
}

bool TraceFilter::matches(const PacketRecord& r) const {
  if (src && r.flow.src != *src) return false;
  if (dst && r.flow.dst != *dst) return false;
  if (src_port && r.flow.src_port != *src_port) return false;
  if (dst_port && r.flow.dst_port != *dst_port) return false;
  if (r.timestamp < from || r.timestamp > to) return false;
  return !useful_only || is_useful(r);
}

std::vector<PacketRecord> apply_filter(const std::vector<PacketRecord>& records,
                                       const TraceFilter& filter) {
  std::vector<PacketRecord> out;
  out.reserve(records.size());
  for (const PacketRecord& r : records) {
    if (filter.matches(r)) out.push_back(r);
  }
  return out;
}

namespace {

/// Frame identity for two-point matching: same flow, same first payload
/// byte, same length — what survives unchanged across hops.
struct FrameKey {
  net::FlowKey flow;
  std::uint64_t seq;
  std::uint32_t payload_bytes;

  friend auto operator<=>(const FrameKey&, const FrameKey&) = default;
};

bool is_data_frame(const PacketRecord& r, net::TapDirection dir) {
  return r.direction == dir && !r.is_ack && r.payload_bytes > 0;
}

}  // namespace

MatchResult match_traces(const std::vector<PacketRecord>& from,
                         const std::vector<PacketRecord>& to) {
  // FIFO queues of departure timestamps per frame identity: duplicates
  // (retransmissions) pair first-sent with first-arrived.
  std::map<FrameKey, std::deque<SimTime>> pending;
  std::size_t from_frames = 0;
  for (const PacketRecord& r : from) {
    if (!is_data_frame(r, net::TapDirection::kOutgoing)) continue;
    pending[FrameKey{r.flow, r.seq, r.payload_bytes}].push_back(r.timestamp);
    ++from_frames;
  }

  MatchResult result;
  for (const PacketRecord& r : to) {
    if (!is_data_frame(r, net::TapDirection::kIncoming)) continue;
    auto it = pending.find(FrameKey{r.flow, r.seq, r.payload_bytes});
    if (it == pending.end() || it->second.empty()) {
      ++result.unmatched_to;
      continue;
    }
    MatchedFrame m;
    m.flow = r.flow;
    m.seq = r.seq;
    m.payload_bytes = r.payload_bytes;
    m.sent_at = it->second.front();
    m.arrived_at = r.timestamp;
    it->second.pop_front();
    result.matched.push_back(m);
  }
  result.unmatched_from = from_frames - result.matched.size();

  std::stable_sort(result.matched.begin(), result.matched.end(),
                   [](const MatchedFrame& a, const MatchedFrame& b) {
                     return a.sent_at < b.sent_at;
                   });
  return result;
}

SimTime MatchResult::latency_quantile(double q) const {
  if (matched.empty()) return 0;
  std::vector<SimTime> lat;
  lat.reserve(matched.size());
  for (const MatchedFrame& m : matched) lat.push_back(m.latency());
  std::sort(lat.begin(), lat.end());
  const double pos = q * static_cast<double>(lat.size() - 1);
  std::size_t idx = static_cast<std::size_t>(pos);
  if (idx >= lat.size() - 1) return lat.back();
  return lat[idx];
}

SimTime MatchResult::min_latency() const { return latency_quantile(0.0); }
SimTime MatchResult::max_latency() const { return latency_quantile(1.0); }

double MatchResult::mean_latency_ns() const {
  if (matched.empty()) return 0.0;
  double sum = 0;
  for (const MatchedFrame& m : matched) sum += static_cast<double>(m.latency());
  return sum / static_cast<double>(matched.size());
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
