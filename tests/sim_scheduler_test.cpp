// Scheduler-overhaul regression tests: the generation-stamped slot arena
// must be observationally identical to a naive reference event queue.
//
//  * a >=100k-op randomized differential walk (schedule / cancel / run_until
//    interleaved, including events scheduled from inside callbacks so slots
//    are recycled mid-run) compares execution order against an independently
//    implemented lazy-deletion reference queue;
//  * handle-reuse tests pin the generation semantics: a stale EventHandle
//    (fired, cancelled, or its slot since recycled) cancels nothing;
//  * cancel interleaved with same-timestamp events pins the (at, seq) FIFO
//    tie-break the whole system's determinism rests on;
//  * a cancel-heavy walk in the TCP retransmission-timer shape checks that
//    compacting cancelled heap entries changes no execution order and keeps
//    the heap within 2 * live + Simulator::kCompactFloor entries.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace vw::sim {
namespace {

// --- reference queue ---------------------------------------------------------
// Deliberately *not* the slot arena: ids are never reused and cancellation is
// a per-id flag, so any aliasing bug in the arena (stale generation honored,
// slot recycled too early, heap entry surviving its slot) diverges the trace.
class ReferenceQueue {
 public:
  using Id = std::uint64_t;

  Id schedule(SimTime at, int op_id, SimTime child_delay = -1) {
    const Id id = table_.size();
    table_.push_back(Event{op_id, child_delay, false, false, nullptr});
    queue_.push(Entry{at, next_seq_++, id});
    return id;
  }

  /// An event whose execution runs `action` after recording `op_id`; the
  /// action may schedule and cancel, like a simulator callback.
  Id schedule(SimTime at, int op_id, std::function<void()> action) {
    const Id id = schedule(at, op_id);
    table_[id].action = std::move(action);
    return id;
  }

  bool cancel(Id id) {
    Event& ev = table_[id];
    if (ev.cancelled || ev.executed) return false;
    ev.cancelled = true;
    return true;
  }

  void run_until(SimTime until, std::vector<int>& trace) {
    while (!queue_.empty()) {
      const Entry top = queue_.top();
      Event& ev = table_[top.id];
      if (ev.cancelled) {
        queue_.pop();
        continue;
      }
      if (top.at > until) break;
      queue_.pop();
      ev.executed = true;
      now_ = top.at;
      trace.push_back(ev.op_id);
      // Mirror of the self-rescheduling callbacks in the simulator walk.
      if (ev.child_delay >= 0) schedule(now_ + ev.child_delay, ev.op_id + 1'000'000);
      // Re-indexed and moved out: schedules may reallocate table_.
      if (auto action = std::exchange(table_[top.id].action, nullptr)) action();
    }
    if (now_ < until) now_ = until;
  }

  SimTime now() const { return now_; }

 private:
  struct Event {
    int op_id;
    SimTime child_delay;  ///< when >= 0, execution schedules a follow-up
    bool cancelled;
    bool executed;
    std::function<void()> action;  ///< run after recording op_id, if set
  };
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    Id id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> table_;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

TEST(SchedulerDifferentialTest, RandomizedWalkMatchesReferenceQueue) {
  // ~168k ops total: 120k schedules + 40k cancel attempts + 8k run_until
  // boundaries, with one in eight events rescheduling a child from inside
  // its callback (the slot-recycling-while-running case).
  constexpr int kRounds = 8'000;
  constexpr int kSchedulesPerRound = 15;
  constexpr int kCancelsPerRound = 5;

  Simulator sim;
  ReferenceQueue ref;
  std::vector<int> sim_trace;
  std::vector<int> ref_trace;

  std::mt19937_64 rng(0xda7a'9a7eULL);
  std::uniform_int_distribution<SimTime> delay(0, 5'000);
  std::uniform_int_distribution<int> child(0, 7);

  // Handles of externally scheduled events; never pruned, so later rounds
  // routinely cancel handles that already fired or were already cancelled —
  // both must agree that those are dead.
  std::vector<std::pair<EventHandle, ReferenceQueue::Id>> handles;

  int next_op = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kSchedulesPerRound; ++i) {
      const int op = next_op++;
      const SimTime at = sim.now() + delay(rng);
      const SimTime child_delay = child(rng) == 0 ? delay(rng) : -1;
      EventHandle h;
      if (child_delay >= 0) {
        h = sim.schedule_at(at, [&sim, &sim_trace, op, child_delay] {
          sim_trace.push_back(op);
          sim.schedule_in(child_delay,
                          [&sim_trace, op] { sim_trace.push_back(op + 1'000'000); });
        });
      } else {
        h = sim.schedule_at(at, [&sim_trace, op] { sim_trace.push_back(op); });
      }
      handles.emplace_back(h, ref.schedule(at, op, child_delay));
    }
    for (int i = 0; i < kCancelsPerRound && !handles.empty(); ++i) {
      const std::size_t pick =
          std::uniform_int_distribution<std::size_t>(0, handles.size() - 1)(rng);
      const bool sim_cancelled = sim.cancel(handles[pick].first);
      const bool ref_cancelled = ref.cancel(handles[pick].second);
      ASSERT_EQ(sim_cancelled, ref_cancelled) << "cancel divergence at round " << round;
    }
    const SimTime until = sim.now() + delay(rng);
    sim.run_until(until);
    ref.run_until(until, ref_trace);
    ASSERT_EQ(sim.now(), ref.now()) << "clock divergence at round " << round;
  }
  sim.run();
  ref.run_until(std::numeric_limits<SimTime>::max() / 2, ref_trace);

  ASSERT_GT(sim_trace.size(), 80'000u);  // the walk actually executed work
  ASSERT_EQ(sim_trace.size(), ref_trace.size());
  ASSERT_EQ(sim_trace, ref_trace);
}

// --- cancelled-entry compaction ----------------------------------------------
// The TCP retransmission shape: about kChains packet chains in flight, each
// packet event re-arming its successor and cancelling and re-arming one long
// timer, so nearly every timer entry is cancelled long before it surfaces.
// Every twentieth round lets the chains die out, so the timer fires and the
// heap shrinks to a handful of live events among many cancelled ones.

/// Drives the same walk on the simulator or on the reference queue; both
/// expose schedule(at, op, then) / cancel(handle) / now().
template <class Engine>
class RtoWalk {
 public:
  static constexpr std::size_t kChains = 50;
  static constexpr SimTime kRto = millis(200);
  static constexpr int kRtoOp = -1;

  explicit RtoWalk(Engine& engine) : engine_(engine) {}

  /// Start chains until kChains are in flight.
  void top_up() {
    while (chains_ < kChains) {
      ++chains_;
      send(next_op_++);
    }
  }

  /// While draining, every chain ends at its next packet.
  void set_draining(bool draining) { draining_ = draining; }

  /// Events the walk holds scheduled and not cancelled.
  std::size_t live() const { return chains_ + (rto_ ? 1 : 0); }
  std::uint64_t cancels() const { return cancels_; }

 private:
  using Handle = decltype(std::declval<Engine&>().schedule(0, 0, std::function<void()>{}));

  static std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  void send(int op) {
    const SimTime gap = micros(10) + static_cast<SimTime>(mix(op) % 2'000) * micros(1);
    engine_.schedule(engine_.now() + gap, op, [this, op] { on_packet(op); });
  }

  void on_packet(int op) {
    if (rto_ && engine_.cancel(*rto_)) ++cancels_;
    rto_ = engine_.schedule(engine_.now() + kRto, kRtoOp, [this] { rto_.reset(); });
    if (draining_ || mix(op) % 16 == 0) {
      --chains_;  // this chain ends
    } else {
      send(next_op_++);
    }
    engine_.after_event(live());
  }

  Engine& engine_;
  bool draining_ = false;
  std::size_t chains_ = 0;
  std::optional<Handle> rto_;
  int next_op_ = 0;
  std::uint64_t cancels_ = 0;
};

struct SimEngine {
  Simulator sim;
  std::vector<int> trace;
  std::size_t max_heap = 0;
  std::size_t bound_violations = 0;

  EventHandle schedule(SimTime at, int op, std::function<void()> then) {
    return sim.schedule_at(at, [this, op, then = std::move(then)] {
      trace.push_back(op);
      then();
    });
  }
  bool cancel(EventHandle h) { return sim.cancel(h); }
  SimTime now() const { return sim.now(); }
  void after_event(std::size_t live) {
    max_heap = std::max(max_heap, sim.heap_entries());
    if (sim.heap_entries() > 2 * live + Simulator::kCompactFloor) ++bound_violations;
  }
};

struct RefEngine {
  ReferenceQueue ref;
  std::vector<int> trace;

  ReferenceQueue::Id schedule(SimTime at, int op, std::function<void()> then) {
    return ref.schedule(at, op, std::move(then));
  }
  bool cancel(ReferenceQueue::Id id) { return ref.cancel(id); }
  SimTime now() const { return ref.now(); }
  void after_event(std::size_t) {}
};

TEST(SchedulerCompactionTest, RtoRearmWalkMatchesReferenceAndBoundsTheHeap) {
  constexpr int kRounds = 1'000;
  SimEngine sim;
  RefEngine ref;
  RtoWalk<SimEngine> sim_walk(sim);
  RtoWalk<RefEngine> ref_walk(ref);

  for (int round = 0; round < kRounds; ++round) {
    const bool drain = round % 20 == 19;
    sim_walk.set_draining(drain);
    ref_walk.set_draining(drain);
    if (!drain) {
      sim_walk.top_up();
      ref_walk.top_up();
    }
    const SimTime until = sim.now() + (drain ? millis(300) : millis(2));
    sim.sim.run_until(until);
    ref.ref.run_until(until, ref.trace);
    ASSERT_EQ(sim.now(), ref.now()) << "clock divergence at round " << round;
    ASSERT_EQ(sim_walk.live(), ref_walk.live()) << "live divergence at round " << round;
    sim.after_event(sim_walk.live());
  }
  sim.sim.run();
  ref.ref.run_until(std::numeric_limits<SimTime>::max() / 2, ref.trace);

  EXPECT_GT(sim.trace.size(), 50'000u);  // the walk actually executed work
  EXPECT_GT(sim_walk.cancels(), 40'000u);
  ASSERT_EQ(sim.trace, ref.trace);
  EXPECT_EQ(sim.bound_violations, 0u) << "heap peaked at " << sim.max_heap << " entries";
  EXPECT_LE(sim.max_heap, 2 * (RtoWalk<SimEngine>::kChains + 1) + Simulator::kCompactFloor);
  EXPECT_EQ(sim.sim.heap_entries(), 0u);
}

// --- generation / handle-reuse semantics -------------------------------------

TEST(SchedulerHandleTest, StaleHandleAfterCancelAndSlotReuseIsNoop) {
  Simulator sim;
  bool b_ran = false;
  EventHandle a = sim.schedule_at(millis(10), [] {});
  ASSERT_TRUE(sim.cancel(a));  // frees a's slot
  // b reuses the freed slot with a bumped generation.
  EventHandle b = sim.schedule_at(millis(20), [&] { b_ran = true; });
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(sim.cancel(a));  // stale: must not kill b
  sim.run();
  EXPECT_TRUE(b_ran);
}

TEST(SchedulerHandleTest, StaleHandleAfterExecutionAndSlotReuseIsNoop) {
  Simulator sim;
  EventHandle a = sim.schedule_at(millis(1), [] {});
  sim.run();  // a fires, its slot returns to the free list
  bool b_ran = false;
  EventHandle b = sim.schedule_at(millis(2), [&] { b_ran = true; });
  EXPECT_FALSE(sim.cancel(a));
  sim.run();
  EXPECT_TRUE(b_ran);
  EXPECT_TRUE(sim.cancel(b) == false);  // b already fired
}

TEST(SchedulerHandleTest, ManyGenerationsOfTheSameSlotStayDistinct) {
  Simulator sim;
  std::vector<EventHandle> stale;
  // With an empty arena each schedule/cancel pair recycles slot 0, bumping
  // its generation every iteration.
  for (int i = 0; i < 1'000; ++i) {
    EventHandle h = sim.schedule_at(millis(1), [] {});
    ASSERT_TRUE(sim.cancel(h));
    stale.push_back(h);
  }
  int fired = 0;
  sim.schedule_at(millis(1), [&] { ++fired; });
  for (EventHandle h : stale) EXPECT_FALSE(sim.cancel(h));
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(SchedulerHandleTest, SlotReusedByCallbackDuringExecutionIsSafe) {
  // pop_and_run_next releases the slot before invoking the callback, so a
  // callback's own schedule_in may land in the very slot of the event being
  // executed. The handle of the *executing* event must then be stale.
  Simulator sim;
  bool child_ran = false;
  EventHandle parent = sim.schedule_at(millis(1), [&] {
    sim.schedule_in(millis(1), [&] { child_ran = true; });
    // The parent is mid-execution: cancelling its handle must not hit the
    // child that now occupies the recycled slot.
    EXPECT_FALSE(sim.cancel(parent));
  });
  sim.run();
  EXPECT_TRUE(child_ran);
}

// --- cancel vs same-timestamp FIFO (run_until / pop_and_run_next sharing) ----

TEST(SchedulerFifoTest, CancelInterleavedWithSameTimeEventsKeepsFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> h;
  for (int i = 0; i < 6; ++i) {
    h.push_back(sim.schedule_at(millis(5), [&order, i] { order.push_back(i); }));
  }
  sim.cancel(h[0]);  // cancelled head: run_until's boundary check must skip it
  sim.cancel(h[3]);  // cancelled mid-sequence entry
  // Scheduled after the cancels; still the same timestamp, so it runs last.
  sim.schedule_at(millis(5), [&order] { order.push_back(6); });
  sim.run_until(millis(5));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 6}));
}

TEST(SchedulerFifoTest, CancelFromCallbackKillsLaterSameTimeEvent) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> h;
  h.push_back(sim.schedule_at(millis(5), [&] {
    order.push_back(0);
    sim.cancel(h[2]);  // same-timestamp victim later in FIFO order
  }));
  h.push_back(sim.schedule_at(millis(5), [&] { order.push_back(1); }));
  h.push_back(sim.schedule_at(millis(5), [&] { order.push_back(2); }));
  h.push_back(sim.schedule_at(millis(5), [&] { order.push_back(3); }));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
}

TEST(SchedulerFifoTest, RunUntilBoundaryWithAllHeadsCancelledAdvancesClock) {
  Simulator sim;
  std::vector<EventHandle> h;
  for (int i = 0; i < 3; ++i) h.push_back(sim.schedule_at(millis(2), [] {}));
  bool late_ran = false;
  sim.schedule_at(millis(50), [&] { late_ran = true; });
  for (EventHandle e : h) sim.cancel(e);
  sim.run_until(millis(10));
  EXPECT_EQ(sim.now(), millis(10));  // skipped cancelled heads, no time warp
  EXPECT_FALSE(late_ran);
  sim.run_until(millis(50));
  EXPECT_TRUE(late_ran);
}

TEST(SchedulerFifoTest, ScheduleAtNowFromCallbackRunsAfterQueuedPeers) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(millis(5), [&] {
    order.push_back(0);
    // Same virtual time, but a later seq than the already-queued peers.
    sim.schedule_at(millis(5), [&order] { order.push_back(9); });
  });
  sim.schedule_at(millis(5), [&order] { order.push_back(1); });
  sim.schedule_at(millis(5), [&order] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}

}  // namespace
}  // namespace vw::sim
