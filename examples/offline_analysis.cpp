// Offline analysis: record now, analyze later.
//
// Wren's original deployment mode (the paper's online analysis extends it):
// the kernel trace is filtered for useful observations and shipped to a
// repository; analysis replays it offline. This example records a
// monitored transfer, writes the filtered records to a vw.trace.v1 archive,
// reads it back, and reproduces the online analyzer from the file alone:
// the replay runs the online collection step at its cadence, so it must
// yield the online observation series and estimate bit for bit.
//
// It also runs the capture differential: the trace facility streams the
// same records to a vw.trace.v1 shard while the run goes on (tap -> encode
// buffer -> shard file). The useful records of that shard must equal the
// batch-written archive one for one, and both must replay to bit-identical
// SIC estimates. Exit status is nonzero on any difference, so CI can use
// this as the capture/replay correctness gate.
//
//   $ ./examples/offline_analysis [archive-path [shard-path]]

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "topo/lan_measurement.hpp"
#include "wren/analyzer.hpp"
#include "wren/offline.hpp"
#include "wren/trace_binary.hpp"

using namespace vw;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/wren-archive.vwtrace";
  const std::string shard_path = argc > 2 ? argv[2] : "/tmp/wren-shard.vwtrace";

  // --- capture phase -----------------------------------------------------
  // The Figure 2 LAN with 35 Mb/s of CBR cross traffic; its online analyzer
  // is what the replay must reproduce.
  topo::LanMeasurement run(35e6);
  const net::NodeId sender = run.tb.sender;
  const net::NodeId receiver = run.tb.receiver;
  wren::TraceFacility trace(*run.tb.network, sender, 1 << 20);
  std::vector<std::pair<net::NodeId, wren::SicObservation>> online_observations;
  run.analyzer.set_on_observation([&](net::NodeId peer, const wren::SicObservation& observation) {
    online_observations.push_back({peer, observation});
  });

  // The streamed path out of the same tap: every record also goes to a shard.
  trace.capture_to(shard_path);

  run.send({{.count = 100, .message_bytes = 200'000, .spacing = millis(100)}});
  run.sim.run_until(seconds(10.0));

  const auto records = wren::filter_useful(trace.collect());
  {
    std::ofstream out(path, std::ios::binary);
    wren::TraceFileHeader header;
    header.host = sender;
    wren::write_trace_binary(out, header, records);
  }
  std::cout << "captured " << records.size() << " useful records -> " << path << "\n";

  // --- offline phase (could run anywhere, any time later) ----------------
  const auto replayed = wren::read_trace_binary_file(path).records;
  const wren::OfflineResult result = wren::analyze_offline(replayed);

  std::cout << "offline analysis: " << result.flows_analyzed << " flow(s), "
            << result.observations.size() << " observations\n";
  for (const auto& [flow, bps] : result.estimates_bps) {
    std::cout << "  flow to host " << flow.dst << ": " << bps / 1e6
              << " Mb/s available (truth: " << run.truth_bps() / 1e6 << " Mb/s)\n";
  }
  const auto live = run.analyzer.available_bandwidth_bps(receiver);
  if (live) std::cout << "online analyzer said:   " << *live / 1e6 << " Mb/s\n";

  int failures = 0;
  // --- offline == online ----------------------------------------------------
  // Same stable time-sort as analyze_offline's series.
  std::stable_sort(online_observations.begin(), online_observations.end(),
                   [](const auto& a, const auto& b) { return a.second.time < b.second.time; });
  bool same_series = result.observations.size() == online_observations.size();
  for (std::size_t i = 0; same_series && i < online_observations.size(); ++i) {
    same_series = result.observations[i].first.dst == online_observations[i].first &&
                  result.observations[i].second == online_observations[i].second;
  }
  if (!same_series) {
    std::cerr << "OFFLINE/ONLINE FAIL: the replay's " << result.observations.size()
              << " observations differ from the online analyzer's "
              << online_observations.size() << "\n";
    ++failures;
  }
  if (!live || result.estimates_bps.size() != 1 || result.estimates_bps[0].second != *live) {
    std::fprintf(stderr, "OFFLINE/ONLINE FAIL: offline estimate %.17g vs online %.17g\n",
                 result.estimates_bps.empty() ? 0.0 : result.estimates_bps[0].second,
                 live.value_or(0.0));
    ++failures;
  }
  if (failures == 0) {
    std::cout << "offline replay == online analyzer: " << online_observations.size()
              << " observations and the estimate bit-identical\n";
  }

  // --- capture differential -----------------------------------------------
  // The streamed shard must hold exactly the archived useful records and
  // replay to the exact same estimates: same records in, same SIC math,
  // bit-identical doubles out.
  trace.finish_capture();
  const wren::BinaryTrace shard = wren::read_trace_binary_file(shard_path);
  std::cout << "streamed shard: " << shard.records.size() << " records -> " << shard_path << "\n";
  const auto shard_useful = wren::filter_useful(shard.records);
  const wren::OfflineResult from_shard = wren::analyze_offline(shard_useful);

  if (shard_useful != records) {
    std::cerr << "DIFFERENTIAL FAIL: shard holds " << shard_useful.size()
              << " useful records, the archive " << records.size()
              << " (or they differ record for record)\n";
    ++failures;
  }
  if (from_shard.observations.size() != result.observations.size()) {
    std::cerr << "DIFFERENTIAL FAIL: " << from_shard.observations.size()
              << " observations from the shard vs " << result.observations.size()
              << " from the archive\n";
    ++failures;
  }
  if (from_shard.estimates_bps.size() != result.estimates_bps.size()) {
    std::cerr << "DIFFERENTIAL FAIL: flow count mismatch\n";
    ++failures;
  }
  for (const auto& [flow, bps] : result.estimates_bps) {
    const auto it =
        std::find_if(from_shard.estimates_bps.begin(), from_shard.estimates_bps.end(),
                     [&flow](const auto& e) { return e.first == flow; });
    if (it == from_shard.estimates_bps.end()) {
      std::cerr << "DIFFERENTIAL FAIL: flow to host " << flow.dst
                << " missing from the shard replay\n";
      ++failures;
    } else if (it->second != bps) {  // bit-identical, not approximately equal
      std::fprintf(stderr, "DIFFERENTIAL FAIL: flow to host %u: %.17g vs %.17g\n",
                   unsigned(flow.dst), it->second, bps);
      ++failures;
    }
  }
  if (failures == 0) {
    std::cout << "shard replay differential: estimates bit-identical\n";
  }
  return failures == 0 ? 0 : 1;
}
