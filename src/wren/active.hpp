#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "transport/stack.hpp"
#include "transport/udp.hpp"
#include "util/trend.hpp"

// An ACTIVE self-induced-congestion prober, in the style of the pathload /
// pathChirp tools the paper cites ([11], [12]): it injects UDP packet
// trains at deliberately chosen rates, measures one-way-delay trends at the
// receiver, and binary-searches for the available bandwidth.
//
// This is the baseline Wren's "free" measurement competes against: the
// bench/active_vs_passive harness compares the two on accuracy and on the
// probe bytes injected into the network (Wren's is zero by construction).

namespace vw::wren {

inline constexpr std::uint32_t kProbeTrainLength = 24;    ///< packets per train
inline constexpr std::uint32_t kProbePacketBytes = 1200;  ///< probe payload
inline constexpr double kProbeMinRateBps = 1e6;           ///< search lower bound
inline constexpr std::size_t kProbeIterations = 10;       ///< binary-search refinement steps
/// Trains per probed rate; the congestion verdict is a majority vote
/// (single trains misread transient queueing noise as congestion).
inline constexpr std::size_t kProbeTrainsPerRate = 3;
inline constexpr SimTime kProbeInterTrainGap = millis(100);
inline constexpr SimTime kProbeSettleAfterTrain = millis(50);  ///< wait for stragglers
/// Congestion verdict: least-squares net delay increase over the train must
/// exceed this multiple of the residual noise (robust against the sawtooth
/// patterns bursty cross traffic imprints on one-way delays).
inline constexpr double kProbeSlopeRatioThreshold = 2.0;

class ActiveProber {
 public:
  using DoneFn = std::function<void(double estimate_bps)>;

  /// Binds a probe sender on `src` and a receiver sink on `dst`; the search
  /// runs between kProbeMinRateBps and `max_rate_bps` (the access line rate).
  ActiveProber(transport::TransportStack& stack, net::NodeId src, net::NodeId dst,
               std::uint16_t dst_port, double max_rate_bps = 1e9);
  ~ActiveProber();

  ActiveProber(const ActiveProber&) = delete;
  ActiveProber& operator=(const ActiveProber&) = delete;

  /// Run the full binary search; `on_done` fires with the final estimate.
  void start(DoneFn on_done);

  /// Mid- or post-run estimate: the midpoint of the current search bracket.
  double estimate_bps() const { return 0.5 * (lo_ + hi_); }
  bool finished() const { return finished_; }

  /// Total probe payload + header bytes this prober injected (the cost of
  /// not being free).
  std::uint64_t bytes_injected() const { return bytes_injected_; }
  std::size_t trains_sent() const { return trains_sent_; }

 private:
  void send_train();
  void evaluate_train();

  transport::TransportStack& stack_;
  sim::Simulator& sim_;
  net::NodeId dst_;
  std::uint16_t dst_port_;
  std::shared_ptr<transport::UdpSocket> tx_;
  std::shared_ptr<transport::UdpSocket> rx_;
  double lo_;
  double hi_;
  std::size_t iteration_ = 0;
  std::size_t train_in_iteration_ = 0;
  std::size_t congested_votes_ = 0;
  double current_rate_ = 0;
  std::uint64_t train_seq_base_ = 0;
  std::vector<SimTime> send_times_;
  std::vector<double> owd_s_;  ///< one-way delays of the current train
  std::uint64_t bytes_injected_ = 0;
  std::size_t trains_sent_ = 0;
  /// Live events: the current train's sends and its evaluation, or the
  /// next train.
  std::vector<sim::EventHandle> pending_;
  bool finished_ = false;
  DoneFn on_done_;
};

}  // namespace vw::wren
