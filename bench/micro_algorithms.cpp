// Algorithm-cost micro benchmarks: the adapted widest-path Dijkstra, the
// greedy heuristic, simulated-annealing iterations, train extraction and
// the SOAP XML round trip — the costs behind §4's "GH completes almost
// instantaneously" / "SA takes much longer" observations.

#include <benchmark/benchmark.h>

#include "soap/xml.hpp"
#include "util/rng.hpp"
#include "vadapt/annealing.hpp"
#include "vadapt/greedy.hpp"
#include "vadapt/widest_path.hpp"
#include "vadapt_problems.hpp"
#include "wren/train.hpp"

namespace {

using namespace vw;
using namespace vw::vadapt;

using bench::random_graph;
using bench::ring_demands;

void BM_WidestPaths(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const CapacityGraph g = random_graph(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(widest_paths(g.bandwidth_matrix(), 0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WidestPaths)->Arg(8)->Arg(32)->Arg(128)->Complexity();

void BM_GreedyHeuristic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const CapacityGraph g = random_graph(n, 2);
  const auto demands = ring_demands(8, 20e6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy_heuristic(g, demands, 8));
  }
}
BENCHMARK(BM_GreedyHeuristic)->Arg(8)->Arg(16)->Arg(32);

void BM_AnnealingIterations(benchmark::State& state) {
  const CapacityGraph g = random_graph(32, 3);
  const auto demands = ring_demands(8, 20e6);
  AnnealingParams params;
  params.iterations = static_cast<std::size_t>(state.range(0));
  params.trace_stride = params.iterations;  // no trace overhead
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulated_annealing(g, demands, 8, Objective{}, params, Rng(seed++)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AnnealingIterations)->Arg(100)->Arg(1000);

void BM_TrainExtraction(benchmark::State& state) {
  const net::FlowKey flow{0, 1, 10, 20, net::Protocol::kTcp};
  // A realistic trace chunk: 1000 records in window bursts of 16.
  std::vector<wren::PacketRecord> records;
  SimTime t = 0;
  std::uint64_t seq = 0;
  for (int burst = 0; burst < 64; ++burst) {
    for (int i = 0; i < 16; ++i) {
      wren::PacketRecord r;
      r.timestamp = t;
      r.flow = flow;
      r.payload_bytes = 1460;
      r.wire_bytes = 1500;
      r.seq = seq;
      records.push_back(r);
      t += micros(120);
      seq += 1460;
    }
    t += millis(30);
  }
  std::uint64_t trains = 0;
  for (auto _ : state) {
    wren::TrainExtractor ex(flow, wren::TrainParams{},
                            [&](const wren::Train&) { ++trains; });
    for (const auto& r : records) ex.add(r);
    ex.flush();
  }
  benchmark::DoNotOptimize(trains);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_TrainExtraction);

void BM_SoapXmlRoundTrip(benchmark::State& state) {
  soap::XmlNode body;
  body.name = "GetObservationsResponse";
  for (int i = 0; i < 32; ++i) {
    soap::XmlNode& o = body.add_child("observation");
    o.add_text_child("id", std::to_string(i));
    o.add_text_child("isr_bps", "94000000.5");
    o.add_text_child("congested", "1");
  }
  for (auto _ : state) {
    const std::string doc = soap::to_xml(soap::make_envelope(body));
    benchmark::DoNotOptimize(soap::extract_body(soap::parse_xml(doc)));
  }
}
BENCHMARK(BM_SoapXmlRoundTrip);

}  // namespace
