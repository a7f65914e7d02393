#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "wren/sic.hpp"
#include "wren/trace.hpp"
#include "wren/train.hpp"

// Wren's user-level analysis. FlowAnalyzer holds a host's per-flow train
// extraction + SIC state, its collection step and the per-peer estimates
// that step folds; OnlineAnalyzer runs the step every kCollectPeriod over
// the kernel trace and reports those estimates, and analyze_offline replays
// a trace through it.

namespace vw::wren {

inline constexpr SimTime kCollectPeriod = millis(100);  ///< user-level collection interval
inline constexpr SimTime kFreshness = seconds(30.0);    ///< older bandwidth estimates are stale

/// Train extraction and SIC settings; the collection period, the estimate
/// freshness window, the train-breaking gap and the SIC window age and
/// pending timeout are the fixed kCollectPeriod, kFreshness, kMaxTrainGap,
/// kWindowAge and kPendingTimeout.
struct WrenParams {
  TrainParams train;
  SicParams sic;
};

class FlowAnalyzer {
 public:
  /// (monitored flow, observation) stream callback.
  using ObservationFn = std::function<void(const net::FlowKey&, const SicObservation&)>;
  using TrainFn = std::function<void(const Train&)>;

  /// What the step folds out of a peer host's flows: the newest estimate
  /// (ties in observation time go to the later flow), the smallest RTT and
  /// the largest capacity.
  struct PeerEstimate {
    std::optional<double> bandwidth_bps;
    SimTime bandwidth_at = 0;  ///< observation time behind bandwidth_bps
    std::optional<double> min_rtt_s;
    std::optional<double> capacity_bps;
  };

 private:
  struct Peer {
    PeerEstimate estimate;
    std::uint64_t refold_step = 0;  ///< the last step that stepped one of its flows
  };

 public:
  /// One outgoing flow's analysis state. Lives in place in the flow table:
  /// the extractor's callback points at the estimator beside it.
  struct Flow {
    Flow(const net::FlowKey& key, FlowAnalyzer& owner);
    Flow(const Flow&) = delete;
    Flow& operator=(const Flow&) = delete;
    SicEstimator estimator;
    TrainExtractor extractor;
    /// Departure of the newest data record since the last flush; 0 once
    /// flushed, when no flush is owed.
    SimTime last_unflushed = 0;
    bool dirty = false;         ///< records added since the last step
    SimTime due = kNoDeadline;  ///< a clean flow needs no step while now <= due
    Peer* peer;                 ///< its entry in the owner's peer table
  };

  /// `on_train` sees every extracted train before SIC analysis queues it.
  FlowAnalyzer(WrenParams params, ObservationFn on_observation, TrainFn on_train = nullptr);
  FlowAnalyzer(const FlowAnalyzer&) = delete;  // flows point back at their owner
  FlowAnalyzer& operator=(const FlowAnalyzer&) = delete;

  /// Route one record: outgoing data to its flow (opening it), incoming
  /// ACKs to the outgoing flow they acknowledge; anything else is ignored.
  void add(const PacketRecord& record);

  /// The collection step at `now`. In flow order, each flow with new
  /// records or a deadline behind `now` flushes a run idle past
  /// kMaxTrainGap and runs process(now); then every flow of a peer with a
  /// stepped flow is folded, in flow order, into that peer's estimate.
  /// Returns the number of flows stepped. Its result equals stepping and
  /// folding every flow: a clean flow's estimator cannot change before its
  /// deadline, and re-folding a peer's unchanged flows is idempotent.
  std::size_t step(SimTime now);

  const std::map<net::FlowKey, Flow>& flows() const { return flows_; }

  /// The folded estimate toward `host`; null before any flow to it opened.
  const PeerEstimate* peer(net::NodeId host) const;

  /// Peers with an open flow, ascending.
  std::vector<net::NodeId> peer_ids() const;

 private:
  static SimTime due_of(const Flow& flow);
  static void fold(const SicEstimator& estimator, PeerEstimate& peer);

  WrenParams params_;
  ObservationFn on_observation_;
  TrainFn on_train_;
  std::map<net::FlowKey, Flow> flows_;
  std::map<net::NodeId, Peer> peers_;
  bool dirty_ = false;         ///< some flow is dirty
  SimTime due_ = kNoDeadline;  ///< earliest flow due
  std::uint64_t steps_ = 0;    ///< steps that did work
};

class OnlineAnalyzer {
 public:
  /// (peer host, observation) stream callback.
  using ObservationFn = std::function<void(net::NodeId, const SicObservation&)>;

  OnlineAnalyzer(net::Network& network, net::NodeId host, WrenParams params = {});

  OnlineAnalyzer(const OnlineAnalyzer&) = delete;
  OnlineAnalyzer& operator=(const OnlineAnalyzer&) = delete;

  /// Latest available-bandwidth estimate toward `peer` (bits/s); nullopt
  /// when no fresh measurement exists. Includes the monitored traffic's own
  /// consumption, as in the paper.
  std::optional<double> available_bandwidth_bps(net::NodeId peer) const;

  /// One-way latency estimate toward `peer` (seconds, min RTT / 2).
  std::optional<double> latency_seconds(net::NodeId peer) const;

  /// Bottleneck capacity estimate toward `peer` (bits/s, from ACK-pair
  /// dispersion) — distinct from available bandwidth.
  std::optional<double> capacity_bps(net::NodeId peer) const;

  /// Peers with any measurement state.
  std::vector<net::NodeId> peers() const;

  void set_on_observation(ObservationFn fn) { on_observation_ = std::move(fn); }

  /// Attach telemetry: wren.collect.* (runs, records, flows_stepped),
  /// wren.trains.*, wren.sic.* counters
  /// plus the wren.train.length histogram; forwards to the trace facility.
  void set_obs(const obs::Scope& scope);

  TraceFacility& trace() { return trace_; }
  const TraceFacility& trace() const { return trace_; }
  std::uint64_t observations_total() const { return observations_total_; }

  /// Run one analysis pass immediately (normally driven by the timer): drain
  /// the trace ring into the flows and step them. With no new record and no
  /// flow due it only settles the host's links and counts the run.
  void analyze_now();

 private:
  net::Network& network_;
  TraceFacility trace_;
  FlowAnalyzer flows_;
  ObservationFn on_observation_;
  std::uint64_t observations_total_ = 0;
  obs::Counter* c_collect_runs_ = nullptr;
  obs::Counter* c_collect_records_ = nullptr;
  obs::Counter* c_flows_stepped_ = nullptr;
  obs::Counter* c_trains_ = nullptr;
  obs::Histogram* h_train_length_ = nullptr;
  obs::Counter* c_observations_ = nullptr;
  obs::Counter* c_congested_ = nullptr;
  sim::PeriodicTask task_;
};

}  // namespace vw::wren
