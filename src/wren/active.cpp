#include "wren/active.hpp"

#include <algorithm>

namespace vw::wren {

ActiveProber::ActiveProber(transport::TransportStack& stack, net::NodeId src, net::NodeId dst,
                           std::uint16_t dst_port, double max_rate_bps)
    : stack_(stack),
      sim_(stack.simulator()),
      dst_(dst),
      dst_port_(dst_port),
      lo_(kProbeMinRateBps),
      hi_(max_rate_bps) {
  tx_ = stack_.udp_bind(src, stack_.ephemeral_port(src));
  rx_ = stack_.udp_bind(dst, dst_port);
  rx_->set_on_receive([this](const net::Packet& pkt) {
    // Datagram ids index into the current train's send timestamps.
    const std::uint64_t idx = pkt.seq - train_seq_base_;
    if (idx < send_times_.size()) {
      owd_s_.push_back(to_seconds(sim_.now() - send_times_[static_cast<std::size_t>(idx)]));
    }
  });
}

ActiveProber::~ActiveProber() {
  for (sim::EventHandle h : pending_) sim_.cancel(h);
}

void ActiveProber::start(DoneFn on_done) {
  on_done_ = std::move(on_done);
  iteration_ = 0;
  finished_ = false;
  send_train();
}

void ActiveProber::send_train() {
  if (train_in_iteration_ == 0) {
    current_rate_ = 0.5 * (lo_ + hi_);
    congested_votes_ = 0;
  }
  send_times_.assign(kProbeTrainLength, 0);
  owd_s_.clear();
  train_seq_base_ = tx_->datagrams_sent();
  ++trains_sent_;

  const double gap_s =
      static_cast<double>(kProbePacketBytes) * 8.0 / current_rate_;
  pending_.clear();
  for (std::uint32_t i = 0; i < kProbeTrainLength; ++i) {
    pending_.push_back(sim_.schedule_in(seconds(gap_s * i), [this, i] {
      send_times_[i] = sim_.now();
      tx_->send_to(dst_, dst_port_, kProbePacketBytes);
      bytes_injected_ += kProbePacketBytes + 28;  // + IP/UDP headers
    }));
  }
  const SimTime train_duration = seconds(gap_s * kProbeTrainLength);
  pending_.push_back(
      sim_.schedule_in(train_duration + kProbeSettleAfterTrain, [this] { evaluate_train(); }));
}

void ActiveProber::evaluate_train() {
  // Heavy probe loss also signals congestion (queue overflow at this rate).
  const bool lossy = owd_s_.size() < kProbeTrainLength * 3 / 4;
  if (lossy || slope_ratio(owd_s_) > kProbeSlopeRatioThreshold) {
    ++congested_votes_;
  }

  if (++train_in_iteration_ < kProbeTrainsPerRate) {
    pending_.assign(1, sim_.schedule_in(kProbeInterTrainGap, [this] { send_train(); }));
    return;
  }

  // Majority verdict over this rate's trains drives the binary search.
  const bool congested = 2 * congested_votes_ > kProbeTrainsPerRate;
  train_in_iteration_ = 0;
  if (congested) {
    hi_ = current_rate_;
  } else {
    lo_ = current_rate_;
  }

  if (++iteration_ >= kProbeIterations) {
    finished_ = true;
    if (on_done_) on_done_(estimate_bps());
    return;
  }
  pending_.assign(1, sim_.schedule_in(kProbeInterTrainGap, [this] { send_train(); }));
}

}  // namespace vw::wren
