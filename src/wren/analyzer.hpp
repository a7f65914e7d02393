#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "wren/sic.hpp"
#include "wren/trace.hpp"
#include "wren/train.hpp"

// Wren's online user-level analysis: periodically drains the kernel trace,
// feeds per-flow train extraction and SIC evaluation, and maintains
// per-peer available-bandwidth and latency state that the SOAP service
// (and VTTIF's nonblocking collect calls) read.

namespace vw::wren {

inline constexpr SimTime kCollectPeriod = millis(100);  ///< user-level collection interval
inline constexpr SimTime kFreshness = seconds(30.0);    ///< older bandwidth estimates are stale

/// Train extraction and SIC settings; the collection period and the
/// estimate freshness window are the fixed kCollectPeriod and kFreshness.
struct WrenParams {
  TrainParams train;
  SicParams sic;
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

  /// Attach telemetry: wren.collect.*, wren.trains.*, wren.sic.* counters
  /// plus the wren.train.length histogram; forwards to the trace facility.
  void set_obs(const obs::Scope& scope);

  net::NodeId host() const { return host_; }
  TraceFacility& trace() { return trace_; }
  const TraceFacility& trace() const { return trace_; }
  std::uint64_t observations_total() const { return observations_total_; }

  /// Run one analysis pass immediately (normally driven by the timer).
  void analyze_now();

 private:
  struct FlowState {
    std::unique_ptr<TrainExtractor> extractor;
    std::unique_ptr<SicEstimator> estimator;
    SimTime last_outgoing = 0;
  };
  struct PeerState {
    std::optional<double> bandwidth_bps;
    SimTime bandwidth_at = 0;
    std::optional<double> min_rtt_s;
    std::optional<double> capacity_bps;
  };

  FlowState& flow_state(const net::FlowKey& key);

  net::Network& network_;
  net::NodeId host_;
  WrenParams params_;
  TraceFacility trace_;
  std::map<net::FlowKey, FlowState> flows_;
  std::map<net::NodeId, PeerState> peer_state_;
  ObservationFn on_observation_;
  std::uint64_t observations_total_ = 0;
  obs::Counter* c_collect_runs_ = nullptr;
  obs::Counter* c_collect_records_ = nullptr;
  obs::Counter* c_trains_ = nullptr;
  obs::Histogram* h_train_length_ = nullptr;
  obs::Counter* c_observations_ = nullptr;
  obs::Counter* c_congested_ = nullptr;
  sim::PeriodicTask task_;
};

}  // namespace vw::wren
