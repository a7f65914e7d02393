#include "wren/analyzer.hpp"

namespace vw::wren {

FlowAnalyzer::Flow::Flow(const net::FlowKey& key, FlowAnalyzer& owner)
    : estimator(owner.params_.sic),
      extractor(key, owner.params_.train, [this, &owner](const Train& train) {
        if (owner.on_train_) owner.on_train_(train);
        estimator.add_train(train);
      }) {
  estimator.set_on_observation([key, &owner](const SicObservation& observation) {
    owner.on_observation_(key, observation);
  });
}

FlowAnalyzer::FlowAnalyzer(WrenParams params, ObservationFn on_observation, TrainFn on_train)
    : params_(params),
      on_observation_(std::move(on_observation)),
      on_train_(std::move(on_train)) {}

void FlowAnalyzer::add(const PacketRecord& record) {
  if (is_outgoing_data(record)) {
    Flow& flow = flows_.try_emplace(record.flow, record.flow, *this).first->second;
    flow.extractor.add(record);
    flow.last_outgoing = record.timestamp;
  } else if (is_incoming_ack(record)) {
    // ACKs for one of our outgoing flows.
    auto it = flows_.find(record.flow.reversed());
    if (it != flows_.end()) it->second.estimator.add_ack(record.timestamp, record.ack);
  }
}

OnlineAnalyzer::OnlineAnalyzer(net::Network& network, net::NodeId host, WrenParams params)
    : network_(network),
      trace_(network, host),
      flows_(
          params,
          [this](const net::FlowKey& flow, const SicObservation& observation) {
            ++observations_total_;
            obs::add(c_observations_);
            if (observation.congested) obs::add(c_congested_);
            if (on_observation_) on_observation_(flow.dst, observation);
          },
          [this](const Train& train) {
            obs::add(c_trains_);
            obs::record(h_train_length_, static_cast<double>(train.length()));
          }),
      task_(network.simulator(), kCollectPeriod, [this] { analyze_now(); }) {}

void OnlineAnalyzer::set_obs(const obs::Scope& scope) {
  trace_.set_obs(scope);
  c_collect_runs_ = scope.counter("wren.collect.runs");
  c_collect_records_ = scope.counter("wren.collect.records");
  c_trains_ = scope.counter("wren.trains.extracted");
  h_train_length_ = scope.histogram("wren.train.length");
  c_observations_ = scope.counter("wren.sic.observations");
  c_congested_ = scope.counter("wren.sic.congested");
}

void OnlineAnalyzer::analyze_now() {
  obs::add(c_collect_runs_);
  const std::vector<PacketRecord> records = trace_.collect();
  obs::add(c_collect_records_, records.size());
  for (const PacketRecord& rec : records) flows_.add(rec);
  flows_.step(network_.simulator().now(), [this](const net::FlowKey& key,
                                                 const SicEstimator& estimator) {
    // Fold flow-level state into the per-peer view.
    PeerState& peer = peer_state_[key.dst];
    if (auto est = estimator.estimate_bps()) {
      if (!estimator.window().empty()) {
        const SimTime obs_at = estimator.window().back().time;
        if (obs_at >= peer.bandwidth_at) {
          peer.bandwidth_bps = est;
          peer.bandwidth_at = obs_at;
        }
      }
    }
    if (auto rtt = estimator.min_rtt_seconds()) {
      if (!peer.min_rtt_s || *rtt < *peer.min_rtt_s) peer.min_rtt_s = rtt;
    }
    if (auto cap = estimator.capacity_estimate_bps()) {
      if (!peer.capacity_bps || *cap > *peer.capacity_bps) peer.capacity_bps = cap;
    }
  });
}

std::optional<double> OnlineAnalyzer::available_bandwidth_bps(net::NodeId peer) const {
  auto it = peer_state_.find(peer);
  if (it == peer_state_.end() || !it->second.bandwidth_bps) return std::nullopt;
  if (network_.simulator().now() - it->second.bandwidth_at > kFreshness) {
    return std::nullopt;
  }
  return it->second.bandwidth_bps;
}

std::optional<double> OnlineAnalyzer::latency_seconds(net::NodeId peer) const {
  auto it = peer_state_.find(peer);
  if (it == peer_state_.end() || !it->second.min_rtt_s) return std::nullopt;
  return *it->second.min_rtt_s / 2.0;
}

std::optional<double> OnlineAnalyzer::capacity_bps(net::NodeId peer) const {
  auto it = peer_state_.find(peer);
  if (it == peer_state_.end()) return std::nullopt;
  return it->second.capacity_bps;
}

std::vector<net::NodeId> OnlineAnalyzer::peers() const {
  std::vector<net::NodeId> out;
  out.reserve(peer_state_.size());
  for (const auto& [peer, state] : peer_state_) out.push_back(peer);
  return out;
}

}  // namespace vw::wren
