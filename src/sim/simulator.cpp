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
  // A slot index must fit in the heap key's low kSlotBits.
  VW_REQUIRE(slots_.size() <= kSlotMask, "Simulator::schedule_at: more than ", kSlotMask + 1,
             " events pending");
  slots_.emplace_back();
  heap_index_.push_back(kNoSlot);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.cb = nullptr;
  // The generation bump invalidates any EventHandle the caller kept around.
  ++slot.gen;
  slot.next_free = free_head_;
  free_head_ = index;
}

void Simulator::sift_up(std::size_t i, HeapEntry entry) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(entry, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, entry);
}

void Simulator::remove_at(std::size_t i) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (i == n) return;  // the removed entry was the last one
  // Walk the hole down to a leaf along the least children, then sift the
  // last entry up from there: it came from the bottom, so it rarely climbs
  // far, and each level costs kArity - 1 comparisons instead of kArity.
  for (std::size_t first = kArity * i + 1; first < n; first = kArity * i + 1) {
    const std::size_t end = std::min(first + kArity, n);
    std::size_t least = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[least])) least = c;
    }
    place(i, heap_[least]);
    i = least;
  }
  sift_up(i, last);
}

EventHandle Simulator::schedule_at(SimTime at, Callback cb) {
  VW_REQUIRE(at >= now_, "Simulator::schedule_at: time in the past (at=", at, " now=", now_, ")");
  VW_REQUIRE(cb != nullptr, "Simulator::schedule_at: empty callback");
  // seq must fit in the heap key above the slot bits.
  VW_REQUIRE(next_seq_ < kSeqLimit, "Simulator::schedule_at: ", kSeqLimit,
             " events scheduled, the sequence space is exhausted");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, HeapEntry{at, next_seq_++ << kSlotBits | index});
  return EventHandle(encode_handle(index, slot.gen));
}

bool Simulator::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  const std::uint32_t index = handle_slot(handle.id_);
  if (index >= slots_.size() || slots_[index].gen != handle_gen(handle.id_)) {
    return false;  // already executed, cancelled, or the slot was reused
  }
  // A matching generation means the slot is live: release bumps it, and a
  // free slot's generation has not been handed out yet.
  const std::uint32_t pos = heap_index_[index];
  VW_ASSERT(pos < heap_.size() && slot_of(heap_[pos]) == index,
            "Simulator::cancel: slot ", index, " has no heap entry");
  remove_at(pos);
  release_slot(index);
  return true;
}

bool Simulator::pop_and_run_next() {
  if (heap_.empty()) return false;
  const HeapEntry entry = heap_.front();
  remove_at(0);
  // Move the callback out and free the slot *before* invoking: the callback
  // may schedule new events that reuse this very slot.
  const std::uint32_t index = slot_of(entry);
  Callback cb = std::move(slots_[index].cb);
  release_slot(index);
  // Virtual time is monotone: the heap must never yield an event behind the
  // clock — everything downstream (TCP RTT samples, Wren timestamps, VTTIF
  // slots) assumes it.
  VW_ASSERT(entry.at >= now_, "Simulator: event time regressed (at=", entry.at, " now=", now_, ")");
  now_ = entry.at;
  ++executed_;
  cb();
  return true;
}

void Simulator::run_until(SimTime until) {
  while (!heap_.empty() && heap_.front().at <= until) {
    pop_and_run_next();
  }
  if (now_ < until) now_ = until;
  VW_ENSURE(now_ >= until, "Simulator::run_until: clock short of target");
}

void Simulator::run() {
  while (pop_and_run_next()) {
  }
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
