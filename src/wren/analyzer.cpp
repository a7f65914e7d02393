#include "wren/analyzer.hpp"

#include <algorithm>

namespace vw::wren {

OnlineAnalyzer::OnlineAnalyzer(net::Network& network, net::NodeId host, WrenParams params)
    : network_(network),
      host_(host),
      params_(params),
      trace_(network, host),
      task_(network.simulator(), kCollectPeriod, [this] { analyze_now(); }) {}

OnlineAnalyzer::FlowState& OnlineAnalyzer::flow_state(const net::FlowKey& key) {
  auto it = flows_.find(key);
  if (it != flows_.end()) return it->second;

  FlowState state;
  state.estimator = std::make_unique<SicEstimator>(params_.sic);
  SicEstimator* estimator = state.estimator.get();
  const net::NodeId peer = key.dst;
  estimator->set_on_observation([this, peer](const SicObservation& observation) {
    ++observations_total_;
    obs::add(c_observations_);
    if (observation.congested) obs::add(c_congested_);
    if (on_observation_) on_observation_(peer, observation);
  });
  state.extractor = std::make_unique<TrainExtractor>(
      key, params_.train, [this, estimator](const Train& train) {
        obs::add(c_trains_);
        obs::record(h_train_length_, static_cast<double>(train.length()));
        estimator->add_train(train);
      });
  return flows_.emplace(key, std::move(state)).first->second;
}

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
  const SimTime now = network_.simulator().now();

  obs::add(c_collect_runs_);
  const std::vector<PacketRecord> records = trace_.collect();
  obs::add(c_collect_records_, records.size());
  for (const PacketRecord& rec : records) {
    if (is_outgoing_data(rec)) {
      FlowState& fs = flow_state(rec.flow);
      fs.extractor->add(rec);
      fs.last_outgoing = rec.timestamp;
    } else if (is_incoming_ack(rec)) {
      // ACKs for one of our outgoing flows.
      auto it = flows_.find(rec.flow.reversed());
      if (it != flows_.end()) it->second.estimator->add_ack(rec.timestamp, rec.ack);
    }
  }

  for (auto& [key, fs] : flows_) {
    // A long-idle flow will never extend its pending run: evaluate it now.
    if (fs.last_outgoing != 0 && now - fs.last_outgoing > params_.train.max_gap) {
      fs.extractor->flush();
    }
    fs.estimator->process(now);

    // Fold flow-level state into the per-peer view.
    PeerState& peer = peer_state_[key.dst];
    if (auto est = fs.estimator->estimate_bps()) {
      if (!fs.estimator->window().empty()) {
        const SimTime obs_at = fs.estimator->window().back().time;
        if (obs_at >= peer.bandwidth_at) {
          peer.bandwidth_bps = est;
          peer.bandwidth_at = obs_at;
        }
      }
    }
    if (auto rtt = fs.estimator->min_rtt_seconds()) {
      if (!peer.min_rtt_s || *rtt < *peer.min_rtt_s) peer.min_rtt_s = rtt;
    }
    if (auto cap = fs.estimator->capacity_estimate_bps()) {
      if (!peer.capacity_bps || *cap > *peer.capacity_bps) peer.capacity_bps = cap;
    }
  }
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
