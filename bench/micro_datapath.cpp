// Datapath micro benchmarks: event-scheduler throughput on a
// TCP-timer-style churn workload, end-to-end simulated packet throughput on
// a fig4-style star topology, and route computation on BRITE networks.
//
// The scheduler is benchmarked twice over the identical workload:
//   * `baseline` — a line-for-line replica of the pre-overhaul engine
//     (std::function callbacks, pending/cancelled unordered_sets, the
//     callback living inside the heap entry), compiled into this binary so
//     the comparison shares compiler, flags, and machine;
//   * `arena` — the real sim::Simulator (SmallFn callbacks, the
//     generation-stamped slot arena and its indexed 4-ary heap).
// Both run the same churn: schedule a batch of timers whose captures match
// the real datapath's (a Packet-sized payload), cancel two thirds of them
// before they fire (what TCP retransmission timers do), run the rest.
// items_per_second = scheduler ops (schedule + cancel + fire); the
// acceptance criterion is arena >= 3x baseline. `BM_SchedulerRearm` times
// the engine alone on the steady-state shape of a TCP sender: each event
// cancels and re-arms one long retransmission timer.
//
// tools/bench_to_json.py --suite datapath wraps this binary into
// BENCH_datapath.json and enforces the gate.
//
// Custom main: runtime audits (VW_AUDIT) are disabled so contract checks in
// hot loops don't pollute the timing.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "topo/brite.hpp"
#include "transport/stack.hpp"
#include "transport/udp.hpp"
#include "util/check.hpp"

namespace {

using namespace vw;

// --- the pre-overhaul scheduler, replicated ----------------------------------
// Kept byte-for-byte faithful to the old sim::Simulator's cost structure
// (see git history): heap entries carry the std::function, live ids sit in
// one hash set, cancelled ids in another.
namespace baseline {

class Scheduler {
 public:
  using Callback = std::function<void()>;
  using Handle = std::uint64_t;

  SimTime now() const { return now_; }

  Handle schedule_at(SimTime at, Callback cb) {
    const std::uint64_t id = next_id_++;
    queue_.push(Event{at, next_seq_++, id, std::move(cb)});
    pending_ids_.insert(id);
    return id;
  }

  bool cancel(Handle id) {
    auto it = pending_ids_.find(id);
    if (it == pending_ids_.end()) return false;
    pending_ids_.erase(it);
    cancelled_.insert(id);
    return true;
  }

  void run() {
    while (!queue_.empty()) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      if (auto it = cancelled_.find(ev.id); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      pending_ids_.erase(ev.id);
      now_ = ev.at;
      ev.cb();
    }
  }

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;
    std::uint64_t id;
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<std::uint64_t> pending_ids_;
  std::unordered_set<std::uint64_t> cancelled_;
};

}  // namespace baseline

// The capture the real datapath schedules: a channel continuation holding
// roughly a Packet by value (~96 bytes). Forces the cost structure the old
// engine actually paid (std::function heap-allocates this; SmallFn holds it
// inline).
struct PacketSizedCapture {
  std::uint64_t words[12];
};

// One churn round on either scheduler: `kBatch` timers land in a 1 ms
// window, two thirds are cancelled before firing (TCP retransmission-timer
// behavior), the rest run. Returns the op count (schedule + cancel + fire).
template <class SchedulerT, class HandleT>
std::uint64_t churn_round(SchedulerT& sched, std::vector<HandleT>& handles,
                          std::uint64_t* sink) {
  constexpr int kBatch = 1'024;
  handles.clear();
  const SimTime base = sched.now();
  PacketSizedCapture cap{};
  for (int i = 0; i < kBatch; ++i) {
    cap.words[0] = static_cast<std::uint64_t>(i);
    // Deterministic pseudo-random spread within the window, like RTO timers.
    const SimTime at = base + (static_cast<SimTime>(i) * 7919) % 1'000'000;
    handles.push_back(sched.schedule_at(at, [cap, sink] { *sink += cap.words[0]; }));
  }
  int attempts = 0;
  int cancelled = 0;
  for (int i = 0; i < kBatch; ++i) {
    if (i % 3 == 0) continue;
    ++attempts;
    if (sched.cancel(handles[static_cast<std::size_t>(i)])) ++cancelled;
  }
  sched.run();
  return static_cast<std::uint64_t>(kBatch + attempts + (kBatch - cancelled));
}

void BM_SchedulerChurn_baseline(benchmark::State& state) {
  baseline::Scheduler sched;
  std::vector<baseline::Scheduler::Handle> handles;
  std::uint64_t sink = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    ops += churn_round(sched, handles, &sink);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_SchedulerChurn_baseline);

void BM_SchedulerChurn_arena(benchmark::State& state) {
  sim::Simulator sched;
  std::vector<sim::EventHandle> handles;
  std::uint64_t sink = 0;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    ops += churn_round(sched, handles, &sink);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_SchedulerChurn_arena);

// --- RTO re-arm: the cancel-heavy steady state of a TCP sender ---------------
// kInFlight packet events chain themselves 1-21 us apart, and each cancels
// and re-arms one 200 ms retransmission timer, so nearly every timer is
// cancelled long before it could fire. A cancel removes the timer's heap
// entry, so the heap holds the 51 live events and nothing else.
// items_per_second = packet events executed.
class RearmLoop {
 public:
  static constexpr int kInFlight = 50;

  RearmLoop() {
    for (int chain = 0; chain < kInFlight; ++chain) send(chain);
  }

  sim::Simulator sim;
  std::uint64_t packets = 0;

 private:
  void send(int chain) {
    const SimTime gap = micros(1) + static_cast<SimTime>((packets * 7919 + chain) % 20'000);
    sim.schedule_in(gap, [this, chain] {
      ++packets;
      sim.cancel(rto_);
      rto_ = sim.schedule_in(millis(200), [] {});
      send(chain);
    });
  }

  sim::EventHandle rto_;
};

void BM_SchedulerRearm(benchmark::State& state) {
  RearmLoop loop;
  loop.sim.run_until(millis(400));  // past the first RTO: steady state
  const std::uint64_t warm = loop.packets;
  for (auto _ : state) loop.sim.run_until(loop.sim.now() + millis(1));
  state.SetItemsProcessed(static_cast<std::int64_t>(loop.packets - warm));
}
BENCHMARK(BM_SchedulerRearm);

// --- packet datapath: fig4-style star ----------------------------------------
// The BSP-transfer shape of fig4: N hosts on a switch, every host streams
// UDP datagrams to its ring neighbor through the full network datapath
// (routing, per-hop channel resolution, one arrival event per hop, taps
// off). Arguments: host count and wire size in bytes (40 B, an ACK; 576 B;
// 1500 B). items_per_second = packets delivered end to end (each crosses
// two channels: host -> switch -> host).
void BM_StarForwarding(benchmark::State& state) {
  const int n_hosts = static_cast<int>(state.range(0));
  constexpr std::uint32_t kUdpHeaderBytes = 28;  // IP + UDP, as UdpSocket stamps it
  const auto payload = static_cast<std::uint32_t>(state.range(1)) - kUdpHeaderBytes;
  sim::Simulator sim;
  net::Network network(sim);
  const net::NodeId sw = network.add_router("switch");
  std::vector<net::NodeId> hosts;
  net::LinkConfig link;
  link.bits_per_sec = 1e9;
  link.prop_delay = micros(5);
  for (int i = 0; i < n_hosts; ++i) {
    hosts.push_back(network.add_host("host-" + std::to_string(i)));
    network.add_link(hosts.back(), sw, link);
  }
  network.compute_routes();

  transport::TransportStack stack(network);
  std::vector<std::shared_ptr<transport::UdpSocket>> socks;
  std::uint64_t received = 0;
  for (int i = 0; i < n_hosts; ++i) {
    socks.push_back(stack.udp_bind(hosts[static_cast<std::size_t>(i)], 4000));
    socks.back()->set_on_receive([&received](net::Packet&&) { ++received; });
  }

  constexpr int kPacketsPerHostPerRound = 64;
  std::uint64_t sent = 0;
  for (auto _ : state) {
    for (int i = 0; i < n_hosts; ++i) {
      const auto dst = static_cast<std::size_t>((i + 1) % n_hosts);
      for (int k = 0; k < kPacketsPerHostPerRound; ++k) {
        // 1.2 us apart: the senders interleave, so the switch's per-hop
        // forwarding path (channel resolution + enqueue) stays hot.
        sim.schedule_at(sim.now() + static_cast<SimTime>(k) * 1'200,
                        [&socks, i, dst, payload] {
                          socks[static_cast<std::size_t>(i)]->send_to(
                              socks[dst]->host(), 4000, payload);
                        });
      }
    }
    sent += static_cast<std::uint64_t>(n_hosts) * kPacketsPerHostPerRound;
    sim.run();
  }
  VW_REQUIRE(received == sent, "star forwarding lost packets (", received, " of ", sent, ")");
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
}
BENCHMARK(BM_StarForwarding)->ArgsProduct({{8, 32}, {40, 576, 1500}});

// --- route computation: fig11-style BRITE networks ----------------------------
// N Waxman routers (out-degree 2) with one single-link host each, the shape
// the federated fleets attach daemons in. Times one Network::compute_routes
// over the 2N-node network; the hosts are leaves, so the per-source Dijkstra
// runs over the N routers only.
void BM_ComputeRoutes(benchmark::State& state) {
  const auto routers = static_cast<std::size_t>(state.range(0));
  topo::BriteParams params;
  params.nodes = routers;
  params.out_degree = 2;
  const RngService rngs(4242);
  const topo::BriteTopology brite(params, rngs.stream("routes.brite"));
  sim::Simulator sim;
  Rng pick = rngs.stream("routes.hosts");
  const topo::BriteNetwork bn = topo::make_brite_network(sim, brite, routers, pick);
  for (auto _ : state) {
    bn.network->compute_routes();
  }
  state.counters["nodes"] = static_cast<double>(bn.network->node_count());
}
BENCHMARK(BM_ComputeRoutes)->Arg(64)->Arg(256)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  vw::contracts::set_audit_enabled(false);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
