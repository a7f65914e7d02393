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
  bits_per_sec_ = bps;
}

void Channel::set_loss(double p, Rng rng) {
  VW_REQUIRE(p >= 0 && p <= 1, "Channel: loss probability out of range: ", p);
  loss_p_ = p;
  loss_rng_ = rng;
}

void Channel::set_down(bool down) {
  down_ = down;
  if (!down) return;
  // Flush both queues: the link carries nothing while down, including the
  // packet currently serializing. Deliveries already in propagation are
  // past this link and still arrive.
  stats_.packets_down_dropped +=
      priority_queue_.size() + best_effort_queue_.size();
  priority_queue_.clear();
  best_effort_queue_.clear();
  prio_bytes_ = 0;
  be_bytes_ = 0;
  if (serving_) {
    sim_.cancel(service_event_);
    service_event_ = sim::EventHandle{};
    serving_ = false;
  }
}

SimTime Channel::current_queue_delay() const {
  return transmission_time(queued_bytes(), bits_per_sec_);
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

bool Channel::enqueue(Packet pkt) {
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
  // queue, which has its own buffer — a best-effort flood must not be able
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
  (priority ? priority_queue_ : best_effort_queue_).push_back(std::move(pkt));
  if (!serving_) start_service();
  return true;
}

void Channel::start_service() {
  serving_priority_ = !priority_queue_.empty();
  std::deque<Packet>& queue = serving_priority_ ? priority_queue_ : best_effort_queue_;
  if (queue.empty()) return;
  serving_ = true;
  const SimTime done = sim_.now() + transmission_time(queue.front().size_bytes(), bits_per_sec_);
  service_event_ = sim_.schedule_at(done, [this] { finish_service(); });
}

void Channel::finish_service() {
  std::deque<Packet>& queue = serving_priority_ ? priority_queue_ : best_effort_queue_;
  VW_ASSERT(!queue.empty(), "Channel::finish_service: serving an empty queue");
  Packet pkt = std::move(queue.front());
  queue.pop_front();
  const std::int64_t size = pkt.size_bytes();
  (serving_priority_ ? prio_bytes_ : be_bytes_) -= size;
  VW_ASSERT(prio_bytes_ >= 0 && be_bytes_ >= 0,
            "Channel: queued-byte accounting went negative");
  stats_.bytes_serialized += static_cast<std::uint64_t>(size);
  if (serving_priority_) ++stats_.priority_packets;

  // serving_ stays true through the callbacks: a zero-propagation delivery
  // can recursively enqueue onto this very channel, and must not start a
  // second concurrent service. The serialized hook sees the packet mutable
  // so the network can stamp wire_time before the outgoing tap fires.
  if (on_serialized_) on_serialized_(pkt, sim_.now());
  if (prop_delay_ == 0) {
    if (on_delivered_) on_delivered_(std::move(pkt));
  } else {
    sim_.schedule_in(prop_delay_, [this, pkt = std::move(pkt)]() mutable {
      if (on_delivered_) on_delivered_(std::move(pkt));
    });
  }

  serving_ = false;
  if (!priority_queue_.empty() || !best_effort_queue_.empty()) start_service();
}

}  // namespace vw::net
