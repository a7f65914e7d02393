#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

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
// The queue is analytic (DESIGN.md §5e). A packet's serialization start and
// departure are known when it is admitted — departure = max(now, previous
// departure) + serialization time — so each packet-hop schedules exactly
// one event: its arrival at the far end, at departure + propagation delay.
// Arrivals leave in departure order, so only the front packet's arrival is
// pending; delivering it schedules the next one. Departures are applied
// lazily by settle(): every reader of channel state (enqueue, stats,
// set_down, set_capacity_bps, the delivery itself, and the network's host
// taps) settles first, so it sees exactly what a channel that had run each
// departure as it happened would show.
//
// The admitted packets live in one contiguous ring (Channel::Queue) indexed
// from its head. It grows by half when full and keeps its storage, so a hop
// allocates nothing once the channel has seen its largest backlog, and each
// channel's memory follows its own high-water mark.

namespace vw::net {

using ChannelId = std::uint32_t;

struct ChannelStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_dropped = 0;       ///< queue overflow (drop tail)
  std::uint64_t packets_lost = 0;          ///< random loss injection
  std::uint64_t packets_down_dropped = 0;  ///< dropped while the link was down
  std::uint64_t bytes_serialized = 0;      ///< total bytes that completed serialization
};

class Channel {
 public:
  /// `on_serialized` reports each packet that has finished serializing onto
  /// the wire, with its departure time (used for source-host outgoing taps).
  /// It runs when the departure is settled, which may be later than the
  /// departure itself but never later than the next read of this channel's
  /// state or the packet's delivery; departures are reported in departure
  /// order. The packet is mutable so the network can stamp `wire_time`
  /// before taps observe it; it lives in the queue, so the hook must not
  /// enqueue onto this channel. `on_delivered` fires when the packet arrives
  /// at the receiving end, with the packet already out of the queue.
  using SerializedFn = SmallFn<void(Packet&, SimTime)>;
  using DeliveredFn = SmallFn<void(Packet&&)>;

  Channel(sim::Simulator& sim, ChannelId id, NodeId from, NodeId to, double bits_per_sec,
          SimTime prop_delay, std::int64_t queue_limit_bytes);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueue for transmission; drops (returning false) when the queue is full.
  bool enqueue(Packet pkt);

  ChannelId id() const { return id_; }
  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  double capacity_bps() const { return bits_per_sec_; }
  SimTime prop_delay() const { return prop_delay_; }
  std::int64_t queue_limit_bytes() const { return queue_limit_bytes_; }
  /// Counters as of now() (settles first).
  const ChannelStats& stats();

  /// Apply every departure at or before `until` (<= now()): count it and
  /// report it through `on_serialized`.
  void settle(SimTime until);
  void settle() { settle(sim_.now()); }

  /// Departure time of the oldest packet whose departure is not settled
  /// yet; kNever when there is none.
  SimTime next_departure() const {
    return departed_ < queue_.size() ? queue_[departed_].departure : kNever;
  }
  static constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

  /// Change capacity at runtime. The packet serializing now keeps its
  /// departure; every packet that has not started is re-timed at the new
  /// rate. Used by scenario scripts.
  void set_capacity_bps(double bps);

  // --- failure injection ------------------------------------------------------
  /// Random loss: each enqueued packet is independently dropped with
  /// probability `p` (0 disables). Deterministic via the supplied stream.
  void set_loss(double p, Rng rng);
  double loss_probability() const { return loss_p_; }

  /// Take the link down or back up. Taking the link down drops every
  /// packet that has not departed (the one serializing included) into
  /// `packets_down_dropped`, so upper layers see a genuine outage; packets
  /// already past serialization (in propagation) still arrive.
  void set_down(bool down);
  bool is_down() const { return down_; }

  void set_on_serialized(SerializedFn fn) { on_serialized_ = std::move(fn); }
  void set_on_delivered(DeliveredFn fn) { on_delivered_ = std::move(fn); }

 private:
  /// An admitted packet that has not arrived yet.
  struct Entry {
    Packet pkt;
    SimTime departure = 0;  ///< serialization end
  };

  /// FIFO of entries in one contiguous ring: slots are constructed on push
  /// and destroyed on pop, and the storage is kept until the channel goes.
  class Queue {
   public:
    Queue() = default;
    Queue(const Queue&) = delete;
    Queue& operator=(const Queue&) = delete;
    ~Queue();

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /// The i-th entry from the front (i < size()).
    Entry& operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
    const Entry& operator[](std::size_t i) const { return slots_[wrap(head_ + i)]; }
    Entry& front() { return slots_[head_]; }
    Entry& back() { return (*this)[size_ - 1]; }

    void push_back(Packet&& pkt, SimTime departure);
    void pop_front();
    /// Destroy every entry from the n-th on (n <= size()).
    void truncate(std::size_t n);

   private:
    /// Slot of ring position i, for i < 2 * capacity_.
    std::size_t wrap(std::size_t i) const { return i < capacity_ ? i : i - capacity_; }
    /// Move the entries, front first, into storage half as large again.
    void grow();

    Entry* slots_ = nullptr;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;  ///< slot of the front entry
    std::size_t size_ = 0;
  };

  /// Re-time queue_[first, end) (first >= 1), none of which has started,
  /// back to back after queue_[first - 1], which has not departed. The
  /// front has started, so its arrival never moves.
  void retime_from(std::size_t first);
  /// Schedule the front packet's arrival, at departure + prop_delay_.
  void arm();
  /// The arrival event: delivers the front packet and arms the next one.
  void deliver();

  sim::Simulator& sim_;
  ChannelId id_;
  NodeId from_;
  NodeId to_;
  double bits_per_sec_;
  SimTime prop_delay_;
  std::int64_t queue_limit_bytes_;
  std::int64_t backlog_bytes_ = 0;  ///< bytes admitted and not yet departed
  // Admitted packets in departure (hence arrival) order: [0, departed_) have
  // departed and are propagating; the rest are queued, the first of them
  // serializing.
  Queue queue_;
  std::size_t departed_ = 0;
  sim::EventHandle arrival_;  ///< the front packet's arrival; one event per hop
  SimTime last_departure_ = 0;  ///< most recent settled departure
  double loss_p_ = 0;
  std::optional<Rng> loss_rng_;
  bool down_ = false;
  ChannelStats stats_;
  SerializedFn on_serialized_;
  DeliveredFn on_delivered_;
};

}  // namespace vw::net
