// Figure 2 reproduction: Wren measurements reflect changes in available
// bandwidth even when the monitored application's throughput does not
// consume all of the available bandwidth.
//
// Setup (paper §2.2): a controlled-load 100 Mbps LAN. iperf-style CBR cross
// traffic regulates the available bandwidth, changing at t=20 s and stopping
// at t=40 s. The monitored application sends three tiers of messages
// (2 KB x200, 50 KB x100, 4 MB x10, 0.1 s spacing, 2 s pauses), the pattern
// repeated twice, followed by 500 KB messages at random spacings.
//
// Output: CSV series time_s, app_tput_mbps, wren_bw_mbps, actual_availbw_mbps
// — the same four curves the paper plots (throughput, wren bw, availbw).

#include <iostream>

#include "topo/lan_measurement.hpp"
#include "util/csv.hpp"

using namespace vw;

int main() {
  // Cross traffic: 25 Mbps initially, 60 Mbps at t=20 s, off at t=40 s.
  topo::LanMeasurement run(25e6);
  sim::Simulator& sim = run.sim;
  sim.schedule_at(seconds(20.0), [&run] { run.cross.set_rate_bps(60e6); });
  sim.schedule_at(seconds(40.0), [&run] { run.cross.set_rate_bps(0); });

  // The monitored application (sizes per the paper's script).
  std::vector<transport::MessagePhase> phases{
      {.count = 200, .message_bytes = 2'000, .spacing = millis(100), .pause_after = seconds(2.0)},
      {.count = 100, .message_bytes = 50'000, .spacing = millis(100), .pause_after = seconds(2.0)},
      {.count = 10, .message_bytes = 4'000'000, .spacing = millis(100),
       .pause_after = seconds(2.0)},
  };
  // Pattern repeated twice, then 500 KB messages with random spacings.
  const transport::MessageSource& app = run.send(phases, /*repeat=*/2, Rng(1234));

  // Ground truth from the switch -> receiver bottleneck (SNMP-style). The
  // rate changes were queued at t=0, so at 20 s and 40 s they run before
  // the sample taken at the same instant.
  struct Sample {
    double t, wren, truth;
  };
  std::vector<Sample> samples;
  sim::PeriodicTask sampler(sim, millis(500), [&] {
    const auto bw = run.analyzer.available_bandwidth_bps(run.tb.receiver);
    samples.push_back(Sample{to_seconds(sim.now()), bw.value_or(0) / 1e6, run.truth_bps() / 1e6});
  });

  const SimTime horizon = seconds(70.0);
  sim.run_until(horizon);
  sampler.stop();

  // Application throughput series from the sink meter.
  const auto tput = app.sink().meter().series(millis(500));

  std::cout << "# Figure 2: Wren online available-bandwidth measurement on a 100 Mbps LAN\n";
  std::cout << "# cross traffic: 25 Mbps (0-20s), 60 Mbps (20-40s), off (40s+)\n";
  CsvWriter csv(std::cout, {"time_s", "app_tput_mbps", "wren_bw_mbps", "actual_availbw_mbps"});
  for (const Sample& s : samples) {
    double app_mbps = 0;
    const auto idx = static_cast<std::size_t>(s.t / 0.5);
    if (idx > 0 && idx - 1 < tput.size()) app_mbps = tput[idx - 1].bps / 1e6;
    csv.row({s.t, app_mbps, s.wren, s.truth});
  }

  std::cerr << "fig2: " << samples.size() << " samples, app delivered "
            << app.sink().bytes_received() / 1e6 << " MB, trains observed -> "
            << run.analyzer.observations_total() << " observations\n";
  return 0;
}
