#include "transport/tcp.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace vw::transport {

TcpConnection::TcpConnection(TransportStack& stack, net::FlowKey flow, bool is_client,
                             bool delayed_ack)
    : stack_(stack),
      sim_(stack.simulator()),
      flow_(flow),
      delayed_ack_(delayed_ack),
      state_(is_client ? State::kSynSent : State::kSynReceived) {
  cwnd_ = static_cast<double>(kInitialCwndSegments * kMss);
  ssthresh_ = kReceiveWindow;
  rto_ = kInitialRto;
}

TcpConnection::~TcpConnection() {
  disarm_rto();
  if (delack_timer_.valid()) sim_.cancel(delack_timer_);
}

void TcpConnection::close() {
  state_ = State::kClosed;
  disarm_rto();
  if (delack_timer_.valid()) {
    sim_.cancel(delack_timer_);
    delack_timer_ = sim::EventHandle{};
  }
}

void TcpConnection::send(std::uint64_t bytes, std::any tag) {
  if (bytes == 0) return;
  buffered_end_ += bytes;
  outgoing_messages_.push_back(Message{buffered_end_, bytes, std::move(tag)});
  if (state_ == State::kEstablished) try_send();
}

// --- handshake -------------------------------------------------------------

void TcpConnection::send_syn(bool ack) {
  net::Packet pkt;
  pkt.flow = flow_;
  pkt.syn = true;
  pkt.is_ack = ack;
  pkt.header_bytes = kHeaderBytes;
  stack_.network().send(std::move(pkt));
  // SYN retransmission backstop.
  disarm_rto();
  rto_timer_ = sim_.schedule_in(rto_, [this] {
    if (state_ == State::kSynSent || state_ == State::kSynReceived) {
      if (++syn_retries_ > 6) {
        close();
        return;
      }
      rto_ = std::min(rto_ * 2, kMaxRto);
      send_syn(state_ == State::kSynReceived);
    }
  });
}

void TcpConnection::handle_syn(const net::Packet&) {
  // Server side: answer with SYN-ACK (state kSynReceived set at creation).
  if (state_ == State::kSynReceived) send_syn(/*ack=*/true);
}

void TcpConnection::handle_synack(const net::Packet&) {
  if (state_ != State::kSynSent) return;
  become_established();
  send_pure_ack();
}

void TcpConnection::become_established() {
  state_ = State::kEstablished;
  disarm_rto();
  rto_ = kInitialRto;
  if (on_established_) on_established_();
  try_send();
}

// --- packet dispatch ---------------------------------------------------------

void TcpConnection::handle_packet(net::Packet&& pkt) {
  if (state_ == State::kClosed) return;
  if (pkt.syn && !pkt.is_ack) {
    handle_syn(pkt);
    return;
  }
  if (pkt.syn && pkt.is_ack) {
    handle_synack(pkt);
    return;
  }
  if (state_ == State::kSynReceived) {
    // First ACK completes the server side of the handshake.
    become_established();
  }
  if (pkt.payload_bytes > 0) {
    handle_data(pkt);
  } else if (pkt.is_ack) {
    handle_ack(pkt);
  }
}

// --- receiver ---------------------------------------------------------------

void TcpConnection::handle_data(const net::Packet& pkt) {
  const std::uint64_t seg_start = pkt.seq;
  const std::uint64_t seg_end = pkt.seq + pkt.payload_bytes;
  bool in_order = false;
  if (seg_end > rcv_nxt_) {
    in_order = seg_start <= rcv_nxt_;
    if (seg_start <= rcv_nxt_) {
      rcv_nxt_ = seg_end;
      // Absorb contiguous out-of-order segments.
      for (auto it = out_of_order_.begin(); it != out_of_order_.end();) {
        if (it->first <= rcv_nxt_) {
          rcv_nxt_ = std::max(rcv_nxt_, it->second);
          it = out_of_order_.erase(it);
        } else {
          break;
        }
      }
      deliver_ready_messages();
      if (on_delivered_) on_delivered_(rcv_nxt_);
    } else {
      // Out of order: remember the interval (coalesce overlaps lazily).
      auto [it, inserted] = out_of_order_.try_emplace(seg_start, seg_end);
      if (!inserted) it->second = std::max(it->second, seg_end);
    }
  }
  if (!delayed_ack_ || !in_order || !out_of_order_.empty()) {
    // Immediate ACK: delayed ACKs disabled, or the segment was out of
    // order / filled a hole (duplicate-ACK feedback must not be delayed).
    send_pure_ack();
    return;
  }
  if (++unacked_segments_ >= 2) {
    send_pure_ack();
    return;
  }
  if (!delack_timer_.valid()) {
    delack_timer_ = sim_.schedule_in(kDelayedAckTimeout, [this] {
      delack_timer_ = sim::EventHandle{};
      if (unacked_segments_ > 0) send_pure_ack();
    });
  }
}

void TcpConnection::deliver_ready_messages() {
  // One message at a time, popped before its callback runs, with peer_
  // re-read each time: the callback may send on either connection. A
  // message it queues on the peer ends past rcv_nxt_, so it waits for its
  // bytes.
  while (peer_ != nullptr && !peer_->outgoing_messages_.empty() &&
         peer_->outgoing_messages_.front().end_offset <= rcv_nxt_) {
    const Message msg = std::move(peer_->outgoing_messages_.front());
    peer_->outgoing_messages_.pop_front();
    if (on_message_) on_message_(msg.bytes, msg.tag);
  }
}

void TcpConnection::send_pure_ack() {
  unacked_segments_ = 0;
  if (delack_timer_.valid()) {
    sim_.cancel(delack_timer_);
    delack_timer_ = sim::EventHandle{};
  }
  net::Packet pkt;
  pkt.flow = flow_;
  pkt.is_ack = true;
  pkt.ack = rcv_nxt_;
  pkt.header_bytes = kHeaderBytes;
  stack_.network().send(std::move(pkt));
}

// --- sender ------------------------------------------------------------------

void TcpConnection::try_send() {
  if (state_ != State::kEstablished) return;
  // Sequence-space sanity: una <= nxt <= buffered_end, else the in-flight
  // arithmetic below underflows into a ~2^64-byte "window".
  VW_ASSERT(snd_una_ <= snd_nxt_ && snd_nxt_ <= buffered_end_,
            "TcpConnection: sequence bookkeeping broken (una=", snd_una_, " nxt=", snd_nxt_,
            " end=", buffered_end_, ")");
  VW_ASSERT(cwnd_ >= 1.0, "TcpConnection: congestion window collapsed to ", cwnd_);
  const std::uint64_t window = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(cwnd_), kReceiveWindow);
  while (snd_nxt_ < buffered_end_) {
    const std::uint64_t in_flight = snd_nxt_ - snd_una_;
    if (in_flight >= window) break;
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>({kMss, buffered_end_ - snd_nxt_, window - in_flight}));
    if (len == 0) break;
    send_segment(snd_nxt_, len, /*retransmit=*/false);
    snd_nxt_ += len;
  }
}

void TcpConnection::send_segment(std::uint64_t seq, std::uint32_t len, bool retransmit) {
  net::Packet pkt;
  pkt.flow = flow_;
  pkt.seq = seq;
  pkt.payload_bytes = len;
  pkt.header_bytes = kHeaderBytes;
  obs::add(stack_.c_tcp_segments_);
  if (retransmit) {
    ++retransmissions_;
    obs::add(stack_.c_tcp_retransmits_);
  } else if (!rtt_sample_pending_) {
    // Karn: only time segments transmitted exactly once.
    rtt_sample_pending_ = true;
    rtt_seq_ = seq + len;
    rtt_sent_at_ = sim_.now();
  }
  stack_.network().send(std::move(pkt));
  if (!rto_timer_.valid() || retransmit) arm_rto();
  else if (snd_una_ == seq) arm_rto();
}

void TcpConnection::handle_ack(const net::Packet& pkt) {
  if (pkt.ack > snd_una_) {
    on_new_ack(pkt.ack);
  } else if (pkt.ack == snd_una_ && snd_nxt_ > snd_una_) {
    on_dup_ack();
  }
}

void TcpConnection::on_new_ack(std::uint64_t ack) {
  VW_ASSERT(ack > snd_una_, "TcpConnection::on_new_ack: stale ACK ", ack, " <= ", snd_una_);
  VW_ASSERT(ack <= buffered_end_, "TcpConnection::on_new_ack: ACK ", ack,
            " beyond sent data end ", buffered_end_);
  // RTT sample (Karn's rule: ignore if the timed segment was retransmitted —
  // a retransmit clears rtt_sample_pending_ implicitly by resetting below).
  if (rtt_sample_pending_ && ack >= rtt_seq_) {
    sample_rtt(sim_.now() - rtt_sent_at_);
    rtt_sample_pending_ = false;
  }

  const std::uint64_t mss = kMss;
  if (in_fast_recovery_) {
    if (ack >= recover_) {
      // Full ACK: leave fast recovery with the halved window.
      in_fast_recovery_ = false;
      cwnd_ = static_cast<double>(ssthresh_);
      dup_acks_ = 0;
    } else {
      // Partial ACK (NewReno): retransmit the next hole and stay in
      // recovery. The partial-ACK chain is self-clocking (each retransmit
      // produces the next partial ACK), so we deliberately do NOT inflate
      // the window with new data — inflation sprays segments into an
      // already overflowing drop-tail queue and devolves into RTO backoff.
      snd_una_ = ack;
      const std::uint32_t len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(mss, buffered_end_ - snd_una_));
      send_segment(snd_una_, len, /*retransmit=*/true);
      arm_rto();
      return;
    }
  } else {
    dup_acks_ = 0;
    if (cwnd_ < static_cast<double>(ssthresh_)) {
      cwnd_ += static_cast<double>(mss);  // slow start
    } else {
      cwnd_ += static_cast<double>(mss) * static_cast<double>(mss) / cwnd_;  // AIMD
    }
  }

  snd_una_ = ack;
  // A late pre-RTO ACK can overtake the go-back-N rewound snd_nxt_.
  if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
  // Forward progress clears any RTO exponential backoff (RFC 6298 style).
  if (srtt_ > 0) rto_ = std::clamp(srtt_ + 4 * rttvar_, kMinRto, kMaxRto);
  if (snd_una_ >= snd_nxt_) {
    disarm_rto();
  } else {
    arm_rto();
  }
  try_send();
}

void TcpConnection::on_dup_ack() {
  ++dup_acks_;
  if (!in_fast_recovery_ && dup_acks_ == 3) enter_fast_recovery();
}

void TcpConnection::enter_fast_recovery() {
  const std::uint64_t mss = kMss;
  const std::uint64_t flight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max<std::uint64_t>(flight / 2, 2 * mss);
  in_fast_recovery_ = true;
  recover_ = snd_nxt_;
  rtt_sample_pending_ = false;
  const std::uint32_t len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(mss, buffered_end_ - snd_una_));
  send_segment(snd_una_, len, /*retransmit=*/true);
  cwnd_ = static_cast<double>(ssthresh_);
}

void TcpConnection::on_rto() {
  if (state_ != State::kEstablished || snd_una_ >= snd_nxt_) return;
  const std::uint64_t mss = kMss;
  const std::uint64_t flight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max<std::uint64_t>(flight / 2, 2 * mss);
  cwnd_ = static_cast<double>(mss);
  dup_acks_ = 0;
  in_fast_recovery_ = false;
  rtt_sample_pending_ = false;
  snd_nxt_ = snd_una_;  // go-back-N
  rto_ = std::min(rto_ * 2, kMaxRto);
  const std::uint32_t len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(mss, buffered_end_ - snd_una_));
  send_segment(snd_una_, len, /*retransmit=*/true);
  snd_nxt_ = snd_una_ + len;
}

void TcpConnection::arm_rto() {
  disarm_rto();
  rto_timer_ = sim_.schedule_in(rto_, [this] { on_rto(); });
}

void TcpConnection::disarm_rto() {
  if (rto_timer_.valid()) {
    sim_.cancel(rto_timer_);
    rto_timer_ = sim::EventHandle{};
  }
}

void TcpConnection::sample_rtt(SimTime rtt) {
  if (srtt_ == 0) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
  } else {
    const SimTime err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + rtt) / 8;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, kMinRto, kMaxRto);
}

}  // namespace vw::transport
