#include "wren/sic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"
#include "util/trend.hpp"

namespace vw::wren {

SicEstimator::SicEstimator(SicParams params)
    : params_(params), smoothed_(kSmoothingAlpha) {}

void SicEstimator::add_ack(SimTime time, std::uint64_t ack) {
  // Keep only cumulative progress: duplicate ACKs signal loss, and a train
  // that suffered loss is not a clean SIC sample anyway (its RTT series is
  // polluted by retransmissions), so we match against first-coverage times.
  if (!acks_.empty() && ack <= acks_.back().ack) return;
  VW_REQUIRE(acks_.empty() || time >= acks_.back().time,
             "SicEstimator::add_ack: ACK timestamps regressed");
  acks_.push_back(AckRecord{time, ack});
  ++acks_unaudited_;
}

void SicEstimator::add_train(const Train& train) {
  VW_REQUIRE(!train.packets.empty(), "SicEstimator::add_train: empty train");
  VW_REQUIRE(train.isr_bps > 0, "SicEstimator::add_train: non-positive ISR ", train.isr_bps);
  pending_.push_back(train);
}

std::optional<SicEstimator::AckRecord> SicEstimator::first_ack_covering(
    std::uint64_t seq_end) const {
  // acks_ is strictly increasing in .ack, so binary search applies.
  auto it = std::lower_bound(acks_.begin(), acks_.end(), seq_end,
                             [](const AckRecord& r, std::uint64_t v) { return r.ack < v; });
  if (it == acks_.end()) return std::nullopt;
  return *it;
}

void SicEstimator::process(SimTime now) {
  // first_ack_covering binary-searches acks_, which add_ack keeps strictly
  // increasing in .ack and non-decreasing in .time; scan-verify on audit.
  // acks_ only grows at the back and shrinks at the front, so scanning the
  // ACKs appended since the last pass plus the one before them audits every
  // adjacent pair exactly once.
  VW_AUDIT(std::adjacent_find(acks_.end() - static_cast<std::ptrdiff_t>(
                                                 std::min(acks_.size(), acks_unaudited_ + 1)),
                              acks_.end(),
                              [](const AckRecord& a, const AckRecord& b) {
                                return b.ack <= a.ack || b.time < a.time;
                              }) == acks_.end(),
           "SicEstimator: ACK record ordering invariant broken");
  acks_unaudited_ = 0;
  while (!pending_.empty()) {
    const Train& train = pending_.front();
    const std::uint64_t last_seq = train.packets.back().seq_end;
    const bool coverable = !acks_.empty() && acks_.back().ack >= last_seq;
    if (!coverable) {
      if (now - train.end_time > kPendingTimeout) {
        ++trains_dropped_;
        pending_.pop_front();
        continue;
      }
      break;  // trains complete in order; wait for more ACKs
    }
    evaluate(train);
    pending_.pop_front();
  }

  // Trim ancient ACK records (nothing pending can reach back that far).
  const SimTime horizon = now - 2 * kPendingTimeout;
  while (acks_.size() > 2 && acks_.front().time < horizon) acks_.pop_front();

  prune_window(now);
}

SimTime SicEstimator::deadline() const {
  SimTime due = kNoDeadline;
  if (!pending_.empty()) due = std::min(due, pending_.front().end_time + kPendingTimeout);
  if (acks_.size() > 2) due = std::min(due, acks_.front().time + 2 * kPendingTimeout);
  if (!window_.empty()) due = std::min(due, window_.front().time + kWindowAge);
  return due;
}

void SicEstimator::evaluate(const Train& train) {
  VW_ASSERT(!train.packets.empty(), "SicEstimator::evaluate: empty train");
  std::vector<double> rtts;
  std::vector<SimTime> ack_times;
  rtts.reserve(train.packets.size());
  std::optional<AckRecord> first_ack, last_ack;
  std::optional<AckRecord> prev_ack;
  for (std::size_t i = 0; i < train.packets.size(); ++i) {
    const TrainPacket& pkt = train.packets[i];
    const auto ack = first_ack_covering(pkt.seq_end);
    if (!ack || ack->time < pkt.sent_at) {
      ++trains_dropped_;  // coverage hole (reordering/limbo): not a clean sample
      return;
    }
    rtts.push_back(to_seconds(ack->time - pkt.sent_at));
    ack_times.push_back(ack->time);
    if (!min_rtt_s_ || rtts.back() < *min_rtt_s_) min_rtt_s_ = rtts.back();
    // Packet-pair capacity sample: distinct consecutive ACK arrivals within
    // a train reveal the bottleneck service rate. The rate uses the bytes
    // the second ACK newly covers (delayed ACKs cover two segments), scaled
    // to wire size. Pairs covering tiny segments (trailing fragments space
    // at the access-link rate) or big jumps (loss-recovery ACKs) don't
    // qualify.
    if (prev_ack && ack->time > prev_ack->time && ack->ack > prev_ack->ack &&
        pkt.wire_bytes >= 1200) {
      const auto covered = static_cast<double>(ack->ack - prev_ack->ack);
      const double wire_factor =
          static_cast<double>(pkt.wire_bytes) /
          std::max<double>(static_cast<double>(pkt.wire_bytes) - 40.0, 1.0);
      if (covered >= 1200 && covered <= 3.0 * 1460.0) {
        const double rate = covered * wire_factor * 8.0 / to_seconds(ack->time - prev_ack->time);
        if (!capacity_bps_ || rate > *capacity_bps_) capacity_bps_ = rate;
      }
    }
    prev_ack = ack;
    if (!first_ack) first_ack = ack;
    last_ack = ack;
  }

  // Trim trailing ACK-timer outliers: a delayed-ACK receiver acknowledges a
  // train's odd final segment only when its 40 ms timer fires, which would
  // fake both an RTT surge and a stretched ACK span. Drop trailing packets
  // whose ACK gap dwarfs the train's median gap.
  std::size_t n_used = rtts.size();
  {
    std::vector<double> gaps;
    for (std::size_t i = 1; i < ack_times.size(); ++i) {
      if (ack_times[i] > ack_times[i - 1]) {
        gaps.push_back(to_seconds(ack_times[i] - ack_times[i - 1]));
      }
    }
    if (const auto med = median_of(std::move(gaps)); med && *med > 0) {
      while (n_used > kTrendMinSamples + 1 &&
             to_seconds(ack_times[n_used - 1] - ack_times[n_used - 2]) > 5.0 * *med) {
        --n_used;
      }
    }
  }
  VW_ASSERT(n_used >= 1 && n_used <= rtts.size(),
            "SicEstimator: delayed-ACK trim out of range (n_used=", n_used, ")");
  if (n_used < rtts.size()) {
    rtts.resize(n_used);
    // Recompute the span endpoint to the last retained packet's ACK.
    last_ack = AckRecord{ack_times[n_used - 1], train.packets[n_used - 1].seq_end};
  }

  SicObservation obs;
  obs.time = last_ack->time;
  obs.isr_bps = train.isr_bps;
  obs.train_length = n_used;
  obs.congested = detect_trend(rtts) == Trend::kIncreasing;
  if (!obs.congested && min_rtt_s_) {
    double mean_rtt = 0;
    for (double r : rtts) mean_rtt += r;
    mean_rtt /= static_cast<double>(rtts.size());
    if (mean_rtt > kSaturatedRttFactor * *min_rtt_s_) obs.congested = true;
  }

  // ACK return rate: bytes after the first packet over the ACK arrival span.
  const SimTime ack_span = last_ack->time - first_ack->time;
  if (ack_span > 0) {
    std::uint64_t bits = 0;
    for (std::size_t i = 1; i < n_used; ++i) {
      bits += train.packets[i].wire_bytes * 8ull;
    }
    obs.ack_rate_bps = static_cast<double>(bits) / to_seconds(ack_span);
  } else {
    obs.ack_rate_bps = train.isr_bps;
  }

  window_.push_back(obs);
  ++observations_total_;
  if (auto raw = raw_estimate_bps()) smoothed_.add(*raw);
  if (on_observation_) on_observation_(obs);
}

void SicEstimator::prune_window(SimTime now) {
  while (window_.size() > params_.window_observations) window_.pop_front();
  while (!window_.empty() && now - window_.front().time > kWindowAge) {
    window_.pop_front();
  }
  VW_ENSURE(window_.size() <= params_.window_observations,
            "SicEstimator: observation window overflow");
}

std::optional<double> SicEstimator::raw_estimate_bps() const {
  // Fusion of the observation window:
  //  * an UNCONGESTED train at rate ISR proves avail >= ISR, so
  //    U = max uncongested ISR is a lower bound;
  //  * a CONGESTED train proves avail < ISR, so C = min congested ISR is an
  //    upper bound;
  //  * a congested train's ACK return rate `a` carries quantitative
  //    information: while the burst shares the drop-tail bottleneck with
  //    cross traffic of rate r, its packets drain at the arrival-
  //    proportional share a = c * ISR / (ISR + r). Inverting with the
  //    capacity estimated as the largest ISR ever observed (back-to-back
  //    bursts serialize at line rate) yields
  //        avail = c - r = c * (1 - ISR/a) + ISR,
  //    which we take as the median across congested trains and clamp into
  //    the proven [U, C] bracket.
  if (window_.empty()) return std::nullopt;
  double max_uncongested = 0;
  double min_congested = std::numeric_limits<double>::infinity();
  double max_isr = 0;
  for (const SicObservation& obs : window_) {
    max_isr = std::max(max_isr, obs.isr_bps);
    if (obs.congested) {
      min_congested = std::min(min_congested, obs.isr_bps);
    } else {
      max_uncongested = std::max(max_uncongested, obs.isr_bps);
    }
  }
  // Capacity: prefer the ACK-pair dispersion estimate (the bottleneck's
  // service rate, which can be far below the sender's access line rate);
  // fall back to the largest ISR when no dispersion sample exists.
  const double capacity_est = std::min(capacity_bps_.value_or(max_isr), max_isr);
  std::vector<double> inverted;
  for (const SicObservation& obs : window_) {
    if (!obs.congested || obs.ack_rate_bps <= 0) continue;
    // During a congested burst our packets drain at the arrival-
    // proportional share a = c * ISR / (ISR + r); invert for avail = c - r.
    inverted.push_back(capacity_est * (1.0 - obs.isr_bps / obs.ack_rate_bps) + obs.isr_bps);
  }

  // The available bandwidth "includes that consumed by the application
  // traffic used for the measurement" (paper §2.2), so the monitored flow's
  // own achieved rate — read off the cumulative ACK progression — is a hard
  // lower bound on any estimate.
  double achieved = 0;
  if (acks_.size() >= 2 && acks_.back().time - acks_.front().time >= seconds(1.0)) {
    // Only trust the achieved-rate floor over a meaningful span; a couple
    // of closely spaced ACKs would fabricate an absurd rate.
    achieved = static_cast<double>(acks_.back().ack - acks_.front().ack) * 8.0 /
               to_seconds(acks_.back().time - acks_.front().time);
  }

  double est;
  if (!inverted.empty()) {
    // Floor at a sliver of capacity: a saturated path has ~zero residual,
    // and reporting a tiny value keeps the smoothed estimate live (whereas
    // reporting nothing would freeze it at a stale level).
    const double lo = std::max({max_uncongested, achieved, 0.01 * capacity_est});
    const double hi = std::max(
        lo, std::isfinite(min_congested) ? min_congested : capacity_est);
    est = std::clamp(*median_of(std::move(inverted)), lo, hi);
  } else {
    est = std::max(max_uncongested, achieved);
  }
  if (est <= 0) return std::nullopt;
  return est;
}

std::optional<double> SicEstimator::estimate_bps() const {
  if (!smoothed_.has_value()) return std::nullopt;
  return smoothed_.value();
}

}  // namespace vw::wren
