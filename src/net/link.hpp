#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

// One direction of a physical link: a drop-tail FIFO queue served at the
// channel capacity, followed by a fixed propagation delay. This is the
// mechanism that makes self-induced congestion observable: trains sent
// faster than the residual capacity build queueing delay, which shows up as
// an increasing RTT trend in the ACKs.
//
// Reservations (paper opportunity 4): a flow may reserve a guaranteed rate.
// Reserved traffic is policed by a token bucket and served from a strict
// priority queue ahead of best effort — the IntServ guaranteed-service
// shape of the optical-reservation substrate the paper cites.

namespace vw::net {

using ChannelId = std::uint32_t;

struct ChannelStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_dropped = 0;       ///< queue overflow (drop tail)
  std::uint64_t packets_lost = 0;          ///< random loss injection
  std::uint64_t packets_down_dropped = 0;  ///< dropped while the link was down
  std::uint64_t bytes_serialized = 0;      ///< total bytes that completed serialization
  std::uint64_t priority_packets = 0;      ///< packets served from the reserved class
};

class Channel {
 public:
  /// `on_serialized` fires when a packet finishes serializing onto the wire
  /// (used for source-host outgoing taps); the packet is mutable so the
  /// network can stamp `wire_time` without const_cast before taps observe
  /// it. `on_delivered` fires when it arrives at the receiving end.
  using SerializedFn = SmallFn<void(Packet&, SimTime)>;
  using DeliveredFn = SmallFn<void(Packet&&)>;

  Channel(sim::Simulator& sim, ChannelId id, NodeId from, NodeId to, double bits_per_sec,
          SimTime prop_delay, std::int64_t queue_limit_bytes);

  /// Enqueue for transmission; drops (returning false) when the queue is full.
  bool enqueue(Packet pkt);

  ChannelId id() const { return id_; }
  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  double capacity_bps() const { return bits_per_sec_; }
  SimTime prop_delay() const { return prop_delay_; }
  std::int64_t queue_limit_bytes() const { return queue_limit_bytes_; }
  std::int64_t queued_bytes() const { return be_bytes_ + prio_bytes_; }
  const ChannelStats& stats() const { return stats_; }

  /// Change capacity at runtime (takes effect for subsequently serialized
  /// packets); used by scenario scripts.
  void set_capacity_bps(double bps);

  // --- failure injection ------------------------------------------------------
  /// Random loss: each enqueued packet is independently dropped with
  /// probability `p` (0 disables). Deterministic via the supplied stream.
  void set_loss(double p, Rng rng);
  double loss_probability() const { return loss_p_; }

  /// Take the link down or back up. Taking the link down drops every
  /// queued packet (both classes) into `packets_down_dropped` and cancels
  /// the in-flight serialization, so upper layers see a genuine outage;
  /// packets already past serialization (in propagation) still arrive.
  void set_down(bool down);
  bool is_down() const { return down_; }

  // --- reservations -------------------------------------------------------------
  /// Guarantee `rate_bps` to `flow` on this channel. Conforming packets
  /// (token bucket: rate_bps, burst `burst_bytes`) are served with strict
  /// priority; excess reverts to best effort. Returns false when the sum of
  /// reservations would exceed the capacity.
  bool add_reservation(const FlowKey& flow, double rate_bps, std::int64_t burst_bytes = 32'768);
  void remove_reservation(const FlowKey& flow);
  double reserved_bps() const;
  bool has_reservation(const FlowKey& flow) const { return reservations_.contains(flow); }

  /// Instantaneous queueing delay a newly arriving best-effort packet would
  /// see (total backlog over capacity).
  SimTime current_queue_delay() const;

  void set_on_serialized(SerializedFn fn) { on_serialized_ = std::move(fn); }
  void set_on_delivered(DeliveredFn fn) { on_delivered_ = std::move(fn); }

 private:
  struct Reservation {
    double rate_bps = 0;
    std::int64_t burst_bytes = 0;
    double tokens = 0;  ///< bytes
    SimTime last_refill = 0;
  };

  void start_service();
  void finish_service();

  sim::Simulator& sim_;
  ChannelId id_;
  NodeId from_;
  NodeId to_;
  double bits_per_sec_;
  SimTime prop_delay_;
  std::int64_t queue_limit_bytes_;
  std::int64_t be_bytes_ = 0;    ///< best-effort backlog
  std::int64_t prio_bytes_ = 0;  ///< reserved-class backlog (own buffer)
  std::deque<Packet> priority_queue_;
  std::deque<Packet> best_effort_queue_;
  bool serving_ = false;
  bool serving_priority_ = false;
  sim::EventHandle service_event_;  ///< pending finish_service (cancelled on down)
  double loss_p_ = 0;
  std::optional<Rng> loss_rng_;
  bool down_ = false;
  std::unordered_map<FlowKey, Reservation, FlowKeyHash> reservations_;
  ChannelStats stats_;
  SerializedFn on_serialized_;
  DeliveredFn on_delivered_;
};

}  // namespace vw::net
