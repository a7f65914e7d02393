#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "transport/stack.hpp"
#include "util/time.hpp"

// TCP Reno endpoint.
//
// The model implements the mechanisms that matter for this paper:
//  * window-clocked bursts (slow start, congestion avoidance) — the natural
//    packet trains Wren mines for available-bandwidth estimates;
//  * per-segment cumulative ACKs — the return feedback whose RTT trend
//    reveals self-induced congestion;
//  * loss recovery (triple-dupack fast retransmit + RTO) so cross-traffic
//    and queue overflows shape throughput realistically.
//
// Message boundaries: send() queues a message; the receiving endpoint fires
// on_message when the in-order byte stream passes the boundary. Boundaries
// travel out-of-band between the two endpoint objects (they stand in for
// bytes that would be inside the stream).

namespace vw::transport {

inline constexpr std::uint64_t kInitialCwndSegments = 2;
inline constexpr std::uint64_t kReceiveWindow = 256 * 1024;  ///< bytes (2006-era scaled window)
inline constexpr SimTime kMinRto = millis(200);
inline constexpr SimTime kMaxRto = seconds(60.0);
inline constexpr SimTime kInitialRto = seconds(1.0);
inline constexpr SimTime kDelayedAckTimeout = millis(40);  ///< see TransportStack::set_delayed_ack

class TcpConnection {
 public:
  enum class State { kSynSent, kSynReceived, kEstablished, kClosed };

  /// A message queued by the sending application.
  struct Message {
    std::uint64_t end_offset;  ///< stream offset one past the last byte
    std::uint64_t bytes;
    std::any tag;
  };

  using EstablishedFn = std::function<void()>;
  using MessageFn = std::function<void(std::uint64_t bytes, const std::any& tag)>;
  using DeliveredFn = std::function<void(std::uint64_t total_bytes)>;

  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // --- application interface -------------------------------------------
  /// Queue `bytes` for transmission as one message.
  void send(std::uint64_t bytes, std::any tag = {});

  void set_on_established(EstablishedFn fn) { on_established_ = std::move(fn); }
  /// Fires on THIS endpoint when a message from the peer is fully delivered.
  void set_on_message(MessageFn fn) { on_message_ = std::move(fn); }
  /// Fires whenever in-order delivered byte count advances.
  void set_on_delivered(DeliveredFn fn) { on_delivered_ = std::move(fn); }

  /// Stop all activity on this endpoint (timers cancelled, packets ignored).
  void close();

  // --- introspection ------------------------------------------------------
  State state() const { return state_; }
  bool established() const { return state_ == State::kEstablished; }
  const net::FlowKey& flow() const { return flow_; }  ///< outgoing data direction
  net::NodeId local_host() const { return flow_.src; }
  net::NodeId remote_host() const { return flow_.dst; }

  double cwnd() const { return cwnd_; }
  std::uint64_t ssthresh() const { return ssthresh_; }
  SimTime srtt() const { return srtt_; }
  std::uint64_t bytes_acked() const { return snd_una_; }
  std::uint64_t bytes_buffered() const { return buffered_end_; }
  /// In-order bytes this endpoint has received from the peer.
  std::uint64_t bytes_received() const { return rcv_nxt_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t bytes_sent_mark() const { return snd_nxt_; }
  std::uint64_t bytes_in_flight() const { return snd_nxt_ - snd_una_; }
  bool in_fast_recovery() const { return in_fast_recovery_; }
  std::uint32_t duplicate_acks() const { return dup_acks_; }
  SimTime current_rto() const { return rto_; }

 private:
  friend class TransportStack;

  TcpConnection(TransportStack& stack, net::FlowKey flow, bool is_client, bool delayed_ack);

  // Packet-level entry point (called by the stack).
  void handle_packet(net::Packet&& pkt);

  void handle_syn(const net::Packet& pkt);
  void handle_synack(const net::Packet& pkt);
  void handle_ack(const net::Packet& pkt);
  void handle_data(const net::Packet& pkt);

  void become_established();
  void try_send();
  void send_segment(std::uint64_t seq, std::uint32_t len, bool retransmit);
  void send_pure_ack();
  void send_syn(bool ack);

  void on_new_ack(std::uint64_t ack);
  void on_dup_ack();
  void enter_fast_recovery();
  void on_rto();
  void arm_rto();
  void disarm_rto();
  void sample_rtt(SimTime rtt);

  void peer_attached(TcpConnection* peer) { peer_ = peer; }
  /// Pops and returns queued messages fully contained below `delivered`.
  std::deque<Message> take_messages_below(std::uint64_t delivered);
  void deliver_ready_messages();

  TransportStack& stack_;
  sim::Simulator& sim_;
  net::FlowKey flow_;
  bool delayed_ack_;
  State state_;
  TcpConnection* peer_ = nullptr;

  // Sender state.
  std::deque<Message> outgoing_messages_;
  std::uint64_t buffered_end_ = 0;
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  double cwnd_ = 0;
  std::uint64_t ssthresh_ = 0;
  std::uint32_t dup_acks_ = 0;
  bool in_fast_recovery_ = false;
  std::uint64_t recover_ = 0;
  std::uint64_t retransmissions_ = 0;

  // RTT estimation (Jacobson/Karn).
  SimTime srtt_ = 0;
  SimTime rttvar_ = 0;
  SimTime rto_;
  bool rtt_sample_pending_ = false;
  std::uint64_t rtt_seq_ = 0;
  SimTime rtt_sent_at_ = 0;
  sim::EventHandle rto_timer_;
  std::uint32_t syn_retries_ = 0;

  // Receiver state.
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, std::uint64_t> out_of_order_;  ///< seq -> end
  std::uint32_t unacked_segments_ = 0;
  sim::EventHandle delack_timer_;

  EstablishedFn on_established_;
  MessageFn on_message_;
  DeliveredFn on_delivered_;
};

}  // namespace vw::transport
