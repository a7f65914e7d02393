#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace vw::sim {

namespace {
constexpr std::uint64_t encode_handle(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(slot) + 1) << 32 | gen;
}
constexpr std::uint32_t handle_slot(std::uint64_t id) {
  return static_cast<std::uint32_t>(id >> 32) - 1;
}
constexpr std::uint32_t handle_gen(std::uint64_t id) { return static_cast<std::uint32_t>(id); }
}  // namespace

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  VW_ASSERT(slots_.size() < kNoSlot, "Simulator: slot arena exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.live = false;
  slot.cb = nullptr;
  // The generation bump is what invalidates both the heap entry still
  // referencing this slot and any EventHandle the caller kept around.
  ++slot.gen;
  slot.next_free = free_head_;
  free_head_ = index;
}

EventHandle Simulator::schedule_at(SimTime at, Callback cb) {
  VW_REQUIRE(at >= now_, "Simulator::schedule_at: time in the past (at=", at, " now=", now_, ")");
  VW_REQUIRE(cb != nullptr, "Simulator::schedule_at: empty callback");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  slot.live = true;
  queue_.push_back(QueueEntry{at, next_seq_++, index, slot.gen});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  ++live_events_;
  return EventHandle(encode_handle(index, slot.gen));
}

bool Simulator::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  const std::uint32_t index = handle_slot(handle.id_);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (!slot.live || slot.gen != handle_gen(handle.id_)) {
    return false;  // already executed, cancelled, or the slot was reused
  }
  release_slot(index);
  VW_ASSERT(live_events_ > 0, "Simulator::cancel: live-event count underflow");
  --live_events_;
  ++stale_entries_;  // its heap entry stays until it surfaces or is compacted
  compact_if_stale();
  return true;
}

void Simulator::compact_if_stale() {
  // Checked after every cancel and every pop, the two operations that can
  // tip the balance, so the heap never exceeds 2 * live + kCompactFloor.
  // Each dropped entry was cancelled once, so the pass is O(1) amortized per
  // cancel; pops compare unique (at, seq) keys, so the rebuilt heap yields
  // the live events in exactly the order the old one would have.
  if (stale_entries_ <= live_events_ || stale_entries_ <= kCompactFloor) return;
  std::erase_if(queue_, [this](const QueueEntry& entry) { return !is_live(entry); });
  std::make_heap(queue_.begin(), queue_.end(), Later{});
  stale_entries_ = 0;
  VW_ENSURE(queue_.size() == live_events_, "Simulator: compaction kept ", queue_.size(),
            " entries for ", live_events_, " live events");
}

bool Simulator::drop_stale_heads() {
  // Pop cancelled entries off the heap head (without advancing time) until a
  // live event — identified by a matching slot generation — or nothing is
  // left. Shared by run_until's boundary check and pop_and_run_next.
  while (!queue_.empty()) {
    if (is_live(queue_.front())) return true;
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
    VW_ASSERT(stale_entries_ > 0, "Simulator: stale-entry count underflow");
    --stale_entries_;
  }
  return false;
}

bool Simulator::pop_and_run_next() {
  if (!drop_stale_heads()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  const QueueEntry entry = queue_.back();
  queue_.pop_back();
  // Move the callback out and free the slot *before* invoking: the callback
  // may schedule new events that reuse this very slot.
  Callback cb = std::move(slots_[entry.slot].cb);
  release_slot(entry.slot);
  // Virtual time is monotone: the heap must never yield an event behind the
  // clock — everything downstream (TCP RTT samples, Wren timestamps, VTTIF
  // slots) assumes it.
  VW_ASSERT(entry.at >= now_, "Simulator: event time regressed (at=", entry.at, " now=", now_, ")");
  VW_ASSERT(live_events_ > 0, "Simulator: executing with zero live events");
  now_ = entry.at;
  --live_events_;
  ++executed_;
  compact_if_stale();
  cb();
  return true;
}

void Simulator::run_until(SimTime until) {
  while (drop_stale_heads() && queue_.front().at <= until) {
    pop_and_run_next();
  }
  if (now_ < until) now_ = until;
  VW_ENSURE(now_ >= until, "Simulator::run_until: clock short of target");
}

void Simulator::run() {
  while (pop_and_run_next()) {
  }
  VW_ENSURE(live_events_ == 0, "Simulator::run: queue drained but live events remain");
}

PeriodicTask::PeriodicTask(Simulator& sim, SimTime period, Simulator::Callback cb)
    : sim_(sim), period_(period), cb_(std::move(cb)) {
  VW_REQUIRE(period_ > 0, "PeriodicTask: period must be positive, got ", period_);
  arm();
}

void PeriodicTask::arm() {
  pending_ = sim_.schedule_in(period_, [this] {
    if (!running_) return;
    cb_();
    if (running_) arm();
  });
}

void PeriodicTask::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(pending_);
}

}  // namespace vw::sim
