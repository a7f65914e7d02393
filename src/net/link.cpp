#include "net/link.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace vw::net {

Channel::Channel(sim::Simulator& sim, ChannelId id, NodeId from, NodeId to, double bits_per_sec,
                 SimTime prop_delay, std::int64_t queue_limit_bytes)
    : sim_(sim),
      id_(id),
      from_(from),
      to_(to),
      bits_per_sec_(bits_per_sec),
      prop_delay_(prop_delay),
      queue_limit_bytes_(queue_limit_bytes) {
  VW_REQUIRE(bits_per_sec_ > 0, "Channel: capacity must be positive, got ", bits_per_sec_);
  VW_REQUIRE(prop_delay_ >= 0, "Channel: negative propagation delay ", prop_delay_);
}

void Channel::set_capacity_bps(double bps) {
  VW_REQUIRE(bps > 0, "Channel: capacity must be positive, got ", bps);
  settle();
  bits_per_sec_ = bps;
  // The first queued packet has started (its predecessor departed by now,
  // or it arrived at an idle channel) and keeps its departure; the rest
  // have not and serialize at the new rate.
  if (departed_ + 1 < queue_.size()) retime_from(departed_ + 1);
}

void Channel::set_loss(double p, Rng rng) {
  VW_REQUIRE(p >= 0 && p <= 1, "Channel: loss probability out of range: ", p);
  loss_p_ = p;
  loss_rng_ = rng;
}

void Channel::set_down(bool down) {
  settle();
  down_ = down;
  if (!down) return;
  // Drop everything not yet departed: the link carries nothing while down,
  // including the packet currently serializing. Deliveries already in
  // propagation are past this link and still arrive.
  if (departed_ == 0) sim_.cancel(arrival_);  // the front itself is dropped
  stats_.packets_down_dropped += queue_.size() - departed_;
  queue_.resize(departed_);
  backlog_bytes_ = 0;
}

const ChannelStats& Channel::stats() {
  settle();
  return stats_;
}

bool Channel::enqueue(Packet pkt) {
  // Admission sees the backlog of bytes that have not departed by now.
  settle();
  if (down_) {
    ++stats_.packets_down_dropped;
    return false;
  }
  if (loss_p_ > 0 && loss_rng_ && loss_rng_->chance(loss_p_)) {
    ++stats_.packets_lost;
    return false;
  }
  const std::int64_t size = pkt.size_bytes();
  if (backlog_bytes_ + size > queue_limit_bytes_) {
    ++stats_.packets_dropped;
    return false;
  }
  backlog_bytes_ += size;
  ++stats_.packets_sent;

  // Serialization starts now, or when the packet ahead departs.
  const SimTime start =
      queue_.empty() ? sim_.now() : std::max(sim_.now(), queue_.back().departure);
  queue_.emplace_back(std::move(pkt), start + transmission_time(size, bits_per_sec_));
  if (queue_.size() == 1) arm();
  return true;
}

void Channel::retime_from(std::size_t first) {
  SimTime at = queue_[first - 1].departure;
  for (auto it = queue_.begin() + static_cast<std::ptrdiff_t>(first); it != queue_.end(); ++it) {
    it->departure = at + transmission_time(it->pkt.size_bytes(), bits_per_sec_);
    at = it->departure;
  }
}

void Channel::arm() {
  arrival_ = sim_.schedule_at(queue_.front().departure + prop_delay_, [this] { deliver(); });
}

void Channel::settle(SimTime until) {
  VW_ASSERT(until <= sim_.now(), "Channel::settle: ", until, " is after now ", sim_.now());
  while (departed_ < queue_.size() && queue_[departed_].departure <= until) {
    Entry& e = queue_[departed_++];
    VW_ASSERT(e.departure >= last_departure_, "Channel ", id_, ": departure ", e.departure,
              " before the previous one at ", last_departure_);
    last_departure_ = e.departure;
    const std::int64_t size = e.pkt.size_bytes();
    backlog_bytes_ -= size;
    VW_ASSERT(backlog_bytes_ >= 0, "Channel ", id_, ": queued-byte accounting went negative");
    stats_.bytes_serialized += static_cast<std::uint64_t>(size);
    // The serialized hook sees the packet mutable so the network can stamp
    // wire_time before the outgoing tap fires.
    if (on_serialized_) on_serialized_(e.pkt, e.departure);
  }
}

void Channel::deliver() {
  arrival_ = sim::EventHandle{};
  settle();
  VW_ASSERT(departed_ > 0 && queue_.front().departure + prop_delay_ == sim_.now(), "Channel ",
            id_, ": delivery at ", sim_.now(), " is not the front packet's arrival");
  Packet pkt = std::move(queue_.front().pkt);
  queue_.pop_front();
  --departed_;
  // Popped before the hook runs: delivery can enqueue onto this very
  // channel (a zero-propagation echo), and an enqueue onto the emptied
  // channel arms its own arrival.
  if (on_delivered_) on_delivered_(std::move(pkt));
  if (!queue_.empty() && !arrival_.valid()) arm();
}

}  // namespace vw::net
