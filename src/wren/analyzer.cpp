#include "wren/analyzer.hpp"

#include <algorithm>

namespace vw::wren {

FlowAnalyzer::Flow::Flow(const net::FlowKey& key, FlowAnalyzer& owner)
    : estimator(owner.params_.sic),
      extractor(key, owner.params_.train, [this, &owner](const Train& train) {
        if (owner.on_train_) owner.on_train_(train);
        estimator.add_train(train);
      }),
      peer(&owner.peers_[key.dst]) {
  estimator.set_on_observation([key, &owner](const SicObservation& observation) {
    owner.on_observation_(key, observation);
  });
}

FlowAnalyzer::FlowAnalyzer(WrenParams params, ObservationFn on_observation, TrainFn on_train)
    : params_(params),
      on_observation_(std::move(on_observation)),
      on_train_(std::move(on_train)) {}

void FlowAnalyzer::add(const PacketRecord& record) {
  Flow* flow = nullptr;
  if (is_outgoing_data(record)) {
    flow = &flows_.try_emplace(record.flow, record.flow, *this).first->second;
    flow->extractor.add(record);
    flow->last_unflushed = record.timestamp;
  } else if (is_incoming_ack(record)) {
    // ACKs for one of our outgoing flows.
    auto it = flows_.find(record.flow.reversed());
    if (it == flows_.end()) return;
    flow = &it->second;
    flow->estimator.add_ack(record.timestamp, record.ack);
  } else {
    return;
  }
  flow->dirty = true;
  dirty_ = true;
}

SimTime FlowAnalyzer::due_of(const Flow& flow) {
  const SimTime due = flow.estimator.deadline();
  if (flow.last_unflushed == 0) return due;
  return std::min(due, flow.last_unflushed + kMaxTrainGap);
}

std::size_t FlowAnalyzer::step(SimTime now) {
  if (!dirty_ && now <= due_) return 0;
  ++steps_;
  std::size_t stepped = 0;
  dirty_ = false;
  due_ = kNoDeadline;
  for (auto& [key, flow] : flows_) {
    if (flow.dirty || now > flow.due) {
      if (flow.last_unflushed != 0 && now - flow.last_unflushed > kMaxTrainGap) {
        flow.extractor.flush();
        flow.last_unflushed = 0;
      }
      flow.estimator.process(now);
      flow.dirty = false;
      flow.due = due_of(flow);
      flow.peer->refold_step = steps_;
      ++stepped;
    }
    due_ = std::min(due_, flow.due);
  }
  for (auto& [key, flow] : flows_) {
    if (flow.peer->refold_step == steps_) fold(flow.estimator, flow.peer->estimate);
  }
  return stepped;
}

void FlowAnalyzer::fold(const SicEstimator& estimator, PeerEstimate& peer) {
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
}

const FlowAnalyzer::PeerEstimate* FlowAnalyzer::peer(net::NodeId host) const {
  auto it = peers_.find(host);
  return it == peers_.end() ? nullptr : &it->second.estimate;
}

std::vector<net::NodeId> FlowAnalyzer::peer_ids() const {
  std::vector<net::NodeId> out;
  out.reserve(peers_.size());
  for (const auto& [peer, state] : peers_) out.push_back(peer);
  return out;
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
  c_flows_stepped_ = scope.counter("wren.collect.flows_stepped");
  c_trains_ = scope.counter("wren.trains.extracted");
  h_train_length_ = scope.histogram("wren.train.length");
  c_observations_ = scope.counter("wren.sic.observations");
  c_congested_ = scope.counter("wren.sic.congested");
}

void OnlineAnalyzer::analyze_now() {
  obs::add(c_collect_runs_);
  obs::add(c_collect_records_,
           trace_.drain([this](const PacketRecord& rec) { flows_.add(rec); }));
  obs::add(c_flows_stepped_, flows_.step(network_.simulator().now()));
}

std::optional<double> OnlineAnalyzer::available_bandwidth_bps(net::NodeId peer) const {
  const FlowAnalyzer::PeerEstimate* state = flows_.peer(peer);
  if (state == nullptr || !state->bandwidth_bps) return std::nullopt;
  if (network_.simulator().now() - state->bandwidth_at > kFreshness) return std::nullopt;
  return state->bandwidth_bps;
}

std::optional<double> OnlineAnalyzer::latency_seconds(net::NodeId peer) const {
  const FlowAnalyzer::PeerEstimate* state = flows_.peer(peer);
  if (state == nullptr || !state->min_rtt_s) return std::nullopt;
  return *state->min_rtt_s / 2.0;
}

std::optional<double> OnlineAnalyzer::capacity_bps(net::NodeId peer) const {
  const FlowAnalyzer::PeerEstimate* state = flows_.peer(peer);
  if (state == nullptr) return std::nullopt;
  return state->capacity_bps;
}

std::vector<net::NodeId> OnlineAnalyzer::peers() const { return flows_.peer_ids(); }

}  // namespace vw::wren
