// §3.4 overheads, as google-benchmark micro benchmarks.
//
// The paper reports: Wren's kernel-level processing has no distinguishable
// effect on throughput or latency; VTTIF affects throughput by ~1% and
// latency not at all; local processing cost is tiny. These benchmarks
// measure our equivalents: the per-packet cost of the forwarding path with
// and without the Wren tap and with VTTIF frame accounting, plus the cost
// of Wren's user-level analysis pass.

#include <benchmark/benchmark.h>

#include <memory>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "transport/sources.hpp"
#include "transport/stack.hpp"
#include "vnet/overlay.hpp"
#include "vttif/local.hpp"
#include "wren/analyzer.hpp"
#include "wren/trace.hpp"

namespace {

using namespace vw;

// One 1 Gb/s link between two hosts with transport stacks: host a writes
// to a TCP sink on host b, so b's ACKs come back and a Wren analyzer on a
// sees trains completed by their ACKs, as on a real monitored path.
struct PathEnv {
  static constexpr std::uint16_t kPort = 5001;

  sim::Simulator sim;
  net::Network net{sim};
  net::NodeId a, b;
  std::unique_ptr<transport::TransportStack> stack;
  std::unique_ptr<transport::TcpSink> sink;
  transport::TcpConnection* conn = nullptr;

  PathEnv() {
    a = net.add_host("a");
    b = net.add_host("b");
    net::LinkConfig cfg;
    cfg.bits_per_sec = 1e9;
    cfg.prop_delay = vw::micros(10);
    // Deeper than TCP's receive window: the path never drops, so every
    // iteration carries each segment once.
    cfg.queue_limit_bytes = 2 * static_cast<std::int64_t>(transport::kReceiveWindow);
    net.add_link(a, b, cfg);
    net.compute_routes();
    stack = std::make_unique<transport::TransportStack>(net);
    sink = std::make_unique<transport::TcpSink>(*stack, b, kPort);
    conn = &stack->tcp_connect(a, b, kPort);
  }
  ~PathEnv() { stack->tcp_close(*conn); }

  /// Writes `packets` full segments and runs one simulated second, which
  /// delivers and acknowledges them all.
  void pump(int packets) {
    conn->send(static_cast<std::uint64_t>(packets) * transport::kMss);
    // Bounded run: periodic measurement tasks never drain the event queue.
    sim.run_until(sim.now() + seconds(1.0));
  }
};

/// Baseline: packet delivery with no measurement infrastructure.
void BM_PacketPathBaseline(benchmark::State& state) {
  PathEnv env;
  for (auto _ : state) env.pump(static_cast<int>(state.range(0)));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PacketPathBaseline)->Arg(1000);

/// Same path with the Wren kernel trace tap capturing every packet.
void BM_PacketPathWithWrenTap(benchmark::State& state) {
  PathEnv env;
  wren::TraceFacility trace(env.net, env.a);
  for (auto _ : state) {
    env.pump(static_cast<int>(state.range(0)));
    benchmark::DoNotOptimize(trace.collect());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PacketPathWithWrenTap)->Arg(1000);

/// Same path with the full online analyzer (trace + trains + SIC). Fails
/// when SIC produced no observation, since it then timed no SIC work.
void BM_PacketPathWithOnlineAnalysis(benchmark::State& state) {
  PathEnv env;
  wren::OnlineAnalyzer analyzer(env.net, env.a);
  for (auto _ : state) {
    env.pump(static_cast<int>(state.range(0)));
    analyzer.analyze_now();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  const auto observations = static_cast<double>(analyzer.observations_total());
  state.counters["observations"] = observations;
  if (observations == 0) state.SkipWithError("SIC produced no observation on the path");
}
BENCHMARK(BM_PacketPathWithOnlineAnalysis)->Arg(1000);

/// VTTIF's per-frame accounting cost (the only cost on the VM data path).
void BM_VttifFrameAccounting(benchmark::State& state) {
  sim::Simulator sim;
  net::Network net(sim);
  const net::NodeId h = net.add_host("h");
  const net::NodeId o = net.add_host("o");
  net.add_link(h, o, {});
  net.compute_routes();
  transport::TransportStack stack(net);
  vnet::Overlay overlay(stack);
  vnet::VnetDaemon& daemon = overlay.create_daemon(h, "d", true);
  daemon.attach_vm(2, [](vnet::FramePtr) {});
  vttif::LocalVttif local(sim, daemon, [](net::NodeId, const vttif::TrafficMatrix&) {});
  vnet::EthernetFrame frame;
  frame.src_mac = 1;
  frame.dst_mac = 2;
  frame.payload_bytes = 1460;
  for (auto _ : state) {
    daemon.inject_from_vm(frame);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VttifFrameAccounting);

/// The same injection without a VTTIF observer, for the delta.
void BM_FrameInjectionBaseline(benchmark::State& state) {
  sim::Simulator sim;
  net::Network net(sim);
  const net::NodeId h = net.add_host("h");
  const net::NodeId o = net.add_host("o");
  net.add_link(h, o, {});
  net.compute_routes();
  transport::TransportStack stack(net);
  vnet::Overlay overlay(stack);
  vnet::VnetDaemon& daemon = overlay.create_daemon(h, "d", true);
  daemon.attach_vm(2, [](vnet::FramePtr) {});
  vnet::EthernetFrame frame;
  frame.src_mac = 1;
  frame.dst_mac = 2;
  frame.payload_bytes = 1460;
  for (auto _ : state) {
    daemon.inject_from_vm(frame);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameInjectionBaseline);

}  // namespace
