#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/small_fn.hpp"
#include "util/time.hpp"

// Discrete-event simulation engine.
//
// Properties the rest of the system depends on:
//  * events at the same virtual time fire in scheduling (FIFO) order, so the
//    whole system is deterministic;
//  * events can be cancelled in O(1) amortized, which the TCP retransmission
//    timers use heavily: a cancelled entry stays in the heap until it
//    surfaces or until cancelled entries outnumber both the live events and
//    kCompactFloor, when one pass drops them all;
//  * the engine is purely single-threaded; "processes" are callbacks.
//
// Hot-path design (see DESIGN.md §5e): callbacks are small-buffer-optimized
// (`SmallFn`, 120 inline bytes — enough for `this` + a Packet capture, which
// the network's loopback and endpoint-delay continuations carry; a link's
// per-hop arrival event captures only its channel), so the steady state
// never heap-allocates per event. Live events are tracked
// in a generation-stamped slot arena with an intrusive free list instead of
// hash sets: the binary heap holds 24-byte POD entries referencing a slot,
// and a cancel simply bumps the slot's generation, which orphans the heap
// entry. The heap therefore holds at most 2 * live + kCompactFloor entries,
// and compaction cannot reorder anything: pops follow the unique (at, seq)
// keys of the live entries, whatever the heap's layout. schedule/pop are
// O(log n) heap operations with zero hashing and zero allocation once the
// arena and heap have grown to the workload's high-water mark.

namespace vw::sim {

/// Opaque handle to a scheduled event, usable to cancel it. Encodes
/// (slot index, generation); a stale handle (event fired or cancelled,
/// slot possibly reused) never matches the slot's current generation, so
/// cancelling it is a safe no-op.
class EventHandle {
 public:
  EventHandle() = default;
  bool valid() const { return id_ != 0; }

 private:
  friend class Simulator;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  std::uint64_t id_ = 0;  ///< (slot + 1) << 32 | generation; 0 = invalid
};

class Simulator {
 public:
  /// Inline capture capacity: the network's loopback and endpoint-delay
  /// continuations capture `this` plus a moved Packet (~96 bytes) and must
  /// not allocate. Per-hop arrivals capture only the channel.
  using Callback = SmallFn<void(), 120>;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `at` (must be >= now()).
  EventHandle schedule_at(SimTime at, Callback cb);

  /// Schedule `cb` `delay` ns from now (delay >= 0).
  EventHandle schedule_in(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancel a previously scheduled event. Safe to call on fired, already
  /// cancelled, or default-constructed handles (no-op). Returns whether the
  /// event was live.
  bool cancel(EventHandle handle);

  /// Run until the event queue drains or virtual time would pass `until`.
  /// Events exactly at `until` are executed. Leaves now() == min(until,
  /// last event time) so successive run_until calls compose.
  void run_until(SimTime until);

  /// Run until the event queue drains completely.
  void run();

  /// True if a live (uncancelled) event is pending.
  bool has_pending() const { return live_events_ > 0; }

  /// Total events executed (diagnostics).
  std::uint64_t events_executed() const { return executed_; }

  /// Heap entries, live and cancelled-but-not-yet-dropped (diagnostics).
  std::size_t heap_entries() const { return queue_.size(); }

  /// Cancelled entries are dropped in one pass once they outnumber both the
  /// live events and this floor, which keeps small heaps from compacting
  /// on every cancel.
  static constexpr std::size_t kCompactFloor = 64;

 private:
  /// Heap entry: plain data only; the callback stays in the slot arena so
  /// sift operations move 24 bytes instead of a type-erased callable.
  struct QueueEntry {
    SimTime at;
    std::uint64_t seq;  ///< tie-break: FIFO among same-time events
    std::uint32_t slot;
    std::uint32_t gen;  ///< must match the slot's generation to be live
  };
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
    bool live = false;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  bool is_live(const QueueEntry& entry) const {
    const Slot& slot = slots_[entry.slot];
    return slot.live && slot.gen == entry.gen;
  }
  void compact_if_stale();
  bool drop_stale_heads();
  bool pop_and_run_next();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_events_ = 0;
  std::size_t stale_entries_ = 0;  ///< cancelled entries still in queue_
  std::vector<QueueEntry> queue_;  ///< binary heap under Later (std::push_heap)
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
};

/// Repeatedly invokes a callback at a fixed period until stopped.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, SimTime period, Simulator::Callback cb);
  ~PeriodicTask() { stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool running() const { return running_; }

 private:
  void arm();

  Simulator& sim_;
  SimTime period_;
  Simulator::Callback cb_;
  EventHandle pending_;
  bool running_ = true;
};

}  // namespace vw::sim
