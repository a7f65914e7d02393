#include "net/link.hpp"

#include <algorithm>
#include <utility>
#include <vector>

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
  prio_bytes_ = 0;
  be_bytes_ = 0;
}

double Channel::reserved_bps() const {
  // Sum in sorted flow order: reservations_ is a hash map and floating-point
  // addition is not associative, so hash-order summation would make the
  // admission threshold depend on container layout instead of on the
  // reservation set itself.
  std::vector<std::pair<FlowKey, double>> rates;
  rates.reserve(reservations_.size());
  // vwlint: unordered-ok(collection only; order normalized by the sort below)
  for (const auto& [flow, r] : reservations_) rates.emplace_back(flow, r.rate_bps);
  std::sort(rates.begin(), rates.end());
  double total = 0;
  for (const auto& [flow, rate] : rates) total += rate;
  return total;
}

bool Channel::add_reservation(const FlowKey& flow, double rate_bps, std::int64_t burst_bytes) {
  VW_REQUIRE(rate_bps > 0 && burst_bytes > 0, "Channel: bad reservation parameters (rate=",
             rate_bps, " burst=", burst_bytes, ")");
  const double existing = reservations_.contains(flow) ? reservations_.at(flow).rate_bps : 0;
  if (reserved_bps() - existing + rate_bps > bits_per_sec_) return false;
  Reservation r;
  r.rate_bps = rate_bps;
  r.burst_bytes = burst_bytes;
  r.tokens = static_cast<double>(burst_bytes);  // start full
  r.last_refill = sim_.now();
  reservations_[flow] = r;
  return true;
}

void Channel::remove_reservation(const FlowKey& flow) { reservations_.erase(flow); }

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

  // Classify first: reserved flows with available tokens ride the priority
  // class, which has its own buffer — a best-effort flood must not be able
  // to starve reserved admissions at the drop-tail stage.
  bool priority = false;
  if (auto it = reservations_.find(pkt.flow); it != reservations_.end()) {
    Reservation& r = it->second;
    r.tokens = std::min(static_cast<double>(r.burst_bytes),
                        r.tokens + r.rate_bps / 8.0 * to_seconds(sim_.now() - r.last_refill));
    r.last_refill = sim_.now();
    if (r.tokens >= static_cast<double>(size)) {
      r.tokens -= static_cast<double>(size);
      priority = true;
    }
  }

  std::int64_t& class_bytes = priority ? prio_bytes_ : be_bytes_;
  if (class_bytes + size > queue_limit_bytes_) {
    ++stats_.packets_dropped;
    return false;
  }
  class_bytes += size;
  ++stats_.packets_sent;

  // Strict priority without preemption: a reserved packet goes behind the
  // packet serializing now and behind the reserved packets queued before it,
  // ahead of every best-effort packet that has not started.
  std::size_t at = queue_.size();
  if (priority) {
    while (at > departed_ + 1 && !queue_[at - 1].priority) --at;
  }
  if (at == queue_.size()) {
    // Serialization starts now, or when the packet ahead departs.
    const SimTime start =
        queue_.empty() ? sim_.now() : std::max(sim_.now(), queue_.back().departure);
    queue_.emplace_back(std::move(pkt), priority, start + transmission_time(size, bits_per_sec_));
  } else {
    queue_.emplace(queue_.begin() + static_cast<std::ptrdiff_t>(at), std::move(pkt), priority);
    retime_from(at);
  }
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
    (e.priority ? prio_bytes_ : be_bytes_) -= size;
    VW_ASSERT(prio_bytes_ >= 0 && be_bytes_ >= 0, "Channel ", id_,
              ": queued-byte accounting went negative");
    stats_.bytes_serialized += static_cast<std::uint64_t>(size);
    if (e.priority) ++stats_.priority_packets;
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
