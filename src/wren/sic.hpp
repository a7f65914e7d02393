#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "util/stats.hpp"
#include "util/time.hpp"
#include "wren/train.hpp"

// Self-induced-congestion analysis of passively observed trains.
//
// For each extracted train we match the returning cumulative ACKs, compute
// per-packet RTTs, and test for an increasing RTT trend. A train whose ISR
// exceeds the available bandwidth necessarily builds queue at the bottleneck
// and shows the trend; a train below it does not. Each train yields one
// observation; because a single short train is "a singleton observation of
// an inherently bursty process", the estimator fuses a sliding window of
// observations into the running available-bandwidth estimate.

namespace vw::wren {

struct SicObservation {
  SimTime time = 0;          ///< when the observation was completed
  double isr_bps = 0;        ///< the train's initial sending rate
  double ack_rate_bps = 0;   ///< rate at which the ACKs returned
  bool congested = false;    ///< increasing RTT trend detected
  std::size_t train_length = 0;
  friend bool operator==(const SicObservation&, const SicObservation&) = default;
};

inline constexpr double kSmoothingAlpha = 0.3;  ///< EWMA on the reported estimate
/// A train whose mean RTT exceeds this multiple of the observed minimum RTT
/// is treated as congested even without an increasing trend: at full
/// saturation the drop-tail queue pins at its limit, RTTs are high but flat,
/// and the pure trend test would misread the train as uncongested.
inline constexpr double kSaturatedRttFactor = 2.5;

inline constexpr SimTime kWindowAge = seconds(3.0);      ///< fusion window max age
inline constexpr SimTime kPendingTimeout = seconds(3.0);  ///< drop trains whose ACKs never arrive
/// SicEstimator::deadline() when no timer is armed.
inline constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

struct SicParams {
  std::size_t window_observations = 20;  ///< fusion window size
};

class SicEstimator {
 public:
  using ObservationFn = std::function<void(const SicObservation&)>;

  explicit SicEstimator(SicParams params = {});

  /// Feed a cumulative ACK arrival (from the reverse-direction trace).
  void add_ack(SimTime time, std::uint64_t ack);

  /// Queue a freshly extracted train for ACK matching.
  void add_train(const Train& train);

  /// Attempt to complete pending trains; call after feeding acks/trains.
  void process(SimTime now);

  /// Until a new ACK or train arrives, process(now) changes nothing while
  /// now <= deadline(). Each of its timers fires on now > t: the oldest
  /// pending train's kPendingTimeout, the ACK trim horizon (2 *
  /// kPendingTimeout behind the oldest of more than two held ACKs) and the
  /// oldest observation's kWindowAge. kNoDeadline when none is armed.
  SimTime deadline() const;

  void set_on_observation(ObservationFn fn) { on_observation_ = std::move(fn); }

  /// Smoothed available-bandwidth estimate (bits/s); nullopt before any
  /// observation completes. Includes the monitored flow's own consumption.
  std::optional<double> estimate_bps() const;

  /// Unsmoothed fusion of the current observation window.
  std::optional<double> raw_estimate_bps() const;

  const std::deque<SicObservation>& window() const { return window_; }
  std::uint64_t observations_total() const { return observations_total_; }
  std::uint64_t trains_dropped() const { return trains_dropped_; }

  /// Smallest per-packet RTT seen while matching trains (seconds) — the
  /// latency estimate's raw material.
  std::optional<double> min_rtt_seconds() const { return min_rtt_s_; }

  /// Bottleneck capacity estimate from ACK-pair dispersion: back-to-back
  /// packets leave the bottleneck spaced by its service time, and per-packet
  /// ACKs preserve that spacing, so the fastest ACK pair reveals the
  /// capacity (packet-pair principle). Nullopt before any train matches.
  std::optional<double> capacity_estimate_bps() const { return capacity_bps_; }

 private:
  struct AckRecord {
    SimTime time;
    std::uint64_t ack;
  };

  void evaluate(const Train& train);
  void prune_window(SimTime now);
  std::optional<AckRecord> first_ack_covering(std::uint64_t seq_end) const;

  SicParams params_;
  std::deque<AckRecord> acks_;  ///< cumulative-max ACKs, increasing in both fields
  std::size_t acks_unaudited_ = 0;  ///< ACKs appended since process() last audited acks_
  std::deque<Train> pending_;
  std::deque<SicObservation> window_;
  Ewma smoothed_;
  ObservationFn on_observation_;
  std::uint64_t observations_total_ = 0;
  std::uint64_t trains_dropped_ = 0;
  std::optional<double> min_rtt_s_;
  std::optional<double> capacity_bps_;
};

}  // namespace vw::wren
