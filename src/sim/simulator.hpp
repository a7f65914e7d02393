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
//  * events can be cancelled in O(log n), which the TCP retransmission
//    timers use heavily: a cancel removes the event's heap entry at once, so
//    the heap holds exactly the live events;
//  * the engine is purely single-threaded; "processes" are callbacks.
//
// Hot-path design (see DESIGN.md §5e): callbacks are small-buffer-optimized
// (`SmallFn`, 120 inline bytes — enough for `this` + a Packet capture, which
// the network's loopback and endpoint-delay continuations carry; a link's
// per-hop arrival event captures only its channel), so the steady state
// never heap-allocates per event. Live events are tracked in a
// generation-stamped slot arena with an intrusive free list instead of hash
// sets. The queue is an indexed 4-ary heap of 16-byte POD entries
// `(at, seq << 24 | slot)`, and a per-slot index records where each live
// event's entry sits, so a cancel removes its entry at once, the same way a
// pop removes the root: the hole walks down to a leaf and the heap's last
// entry refills it from there. Pops follow the unique (at, seq) keys, whatever the heap's
// layout. schedule/pop/cancel are O(log n) with zero hashing and zero
// allocation once the arena and heap have grown to the workload's
// high-water mark.

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
  bool has_pending() const { return !heap_.empty(); }

  /// Total events executed (diagnostics).
  std::uint64_t events_executed() const { return executed_; }

  /// Heap entries (diagnostics): exactly the live events.
  std::size_t heap_entries() const { return heap_.size(); }

 private:
  /// Heap entry: plain data only; the callback stays in the slot arena so
  /// sift operations move 16 bytes instead of a type-erased callable.
  struct HeapEntry {
    SimTime at;
    std::uint64_t key;  ///< seq << kSlotBits | slot; seq makes same-time events FIFO
  };
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.at != b.at ? a.at < b.at : a.key < b.key;
  }
  struct Slot {
    Callback cb;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr unsigned kSlotBits = 24;  ///< at most 2^24 pending events
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << (64 - kSlotBits);
  static constexpr std::size_t kArity = 4;
  static std::uint32_t slot_of(const HeapEntry& entry) {
    return static_cast<std::uint32_t>(entry.key & kSlotMask);
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  /// Store `entry` at heap index `i` and record the index for its slot.
  void place(std::size_t i, const HeapEntry& entry) {
    heap_[i] = entry;
    heap_index_[slot_of(entry)] = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i, HeapEntry entry);
  /// Remove the entry at heap index `i`: the last entry fills the hole.
  void remove_at(std::size_t i);
  bool pop_and_run_next();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<HeapEntry> heap_;  ///< kArity-ary min-heap under before()
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> heap_index_;  ///< per slot: its live entry's heap index
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
