// Tests for offline Wren (useful-record filtering, vw.trace.v1 archive
// replay analysis) and the active SIC prober baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "topo/lan_measurement.hpp"
#include "topo/testbed.hpp"
#include "transport/stack.hpp"
#include "wren/active.hpp"
#include "wren/analyzer.hpp"
#include "wren/offline.hpp"
#include "wren/trace.hpp"
#include "wren/trace_binary.hpp"

namespace vw::wren {
namespace {

PacketRecord sample_record() {
  PacketRecord r;
  r.timestamp = millis(123);
  r.direction = net::TapDirection::kOutgoing;
  r.flow = net::FlowKey{3, 7, 1000, 2000, net::Protocol::kTcp};
  r.payload_bytes = 1460;
  r.wire_bytes = 1500;
  r.seq = 14600;
  r.ack = 0;
  return r;
}

// --- useful-record filter -----------------------------------------------------

TEST(UsefulRecordTest, FilterUsefulDropsNoise) {
  std::vector<PacketRecord> records;
  records.push_back(sample_record());  // outgoing data: keep
  PacketRecord syn = sample_record();
  syn.payload_bytes = 0;
  syn.syn = true;
  records.push_back(syn);  // drop (no payload, not an incoming ack)
  PacketRecord in_data = sample_record();
  in_data.direction = net::TapDirection::kIncoming;
  records.push_back(in_data);  // drop (incoming data is the peer's problem)
  PacketRecord in_ack = sample_record();
  in_ack.direction = net::TapDirection::kIncoming;
  in_ack.is_ack = true;
  in_ack.payload_bytes = 0;
  records.push_back(in_ack);  // keep
  EXPECT_EQ(filter_useful(records).size(), 2u);
}

// --- offline analysis -----------------------------------------------------------

// A monitored message transfer from the sender, with CBR cross traffic to
// the same receiver, for 10 s.
struct LanScenario {
  const char* name;
  double cross_bps;
  std::uint32_t messages;
  SimTime spacing;
};

// Offline replay runs the online analyzer's own collection step at its
// cadence, so the recorded trace must replay to exactly the observation series
// and the estimate the online analyzer produced.
void expect_offline_matches_online(const LanScenario& scenario) {
  topo::LanMeasurement run(scenario.cross_bps);
  TraceFacility trace(*run.tb.network, run.tb.sender, 1 << 20);
  std::vector<std::pair<net::NodeId, SicObservation>> online_observations;
  run.analyzer.set_on_observation([&](net::NodeId peer, const SicObservation& observation) {
    online_observations.push_back({peer, observation});
  });
  run.send({{.count = scenario.messages, .message_bytes = 200'000, .spacing = scenario.spacing}});
  run.sim.run_until(seconds(10.0));

  const auto online_bw = run.analyzer.available_bandwidth_bps(run.tb.receiver);
  ASSERT_TRUE(online_bw.has_value());

  const auto records = filter_useful(trace.collect());
  ASSERT_GT(records.size(), 1000u);
  const OfflineResult result = analyze_offline(records);
  ASSERT_EQ(result.flows_analyzed, 1u);
  ASSERT_EQ(result.estimates_bps.size(), 1u);
  EXPECT_EQ(result.estimates_bps[0].second, *online_bw);  // bit-identical doubles

  // The same stable time-sort analyze_offline applies to its series.
  std::stable_sort(online_observations.begin(), online_observations.end(),
                   [](const auto& a, const auto& b) { return a.second.time < b.second.time; });
  ASSERT_GT(online_observations.size(), 10u);
  ASSERT_EQ(result.observations.size(), online_observations.size());
  for (std::size_t i = 0; i < online_observations.size(); ++i) {
    ASSERT_EQ(result.observations[i].first.dst, online_observations[i].first) << "#" << i;
    ASSERT_EQ(result.observations[i].second, online_observations[i].second) << "#" << i;
  }
}

TEST(OfflineAnalysisTest, MatchesOnlineOnRecordedTraffic) {
  for (const LanScenario& scenario : {LanScenario{"spaced", 40e6, 100, millis(100)},
                                      LanScenario{"dumbbell", 60e6, 200, millis(37)},
                                      LanScenario{"bulk", 20e6, 100, 0}}) {
    SCOPED_TRACE(scenario.name);
    expect_offline_matches_online(scenario);
  }
}

TEST(OfflineAnalysisTest, ArchiveRoundTripPreservesAnalysis) {
  topo::LanMeasurement run;
  TraceFacility trace(*run.tb.network, run.tb.sender, 1 << 20);
  run.send({{.count = 60, .message_bytes = 200'000, .spacing = millis(100)}});
  run.sim.run_until(seconds(7.0));

  const auto records = filter_useful(trace.collect());
  std::stringstream ss;
  write_trace_binary(ss, TraceFileHeader{}, records);
  const auto reread = read_trace_binary(ss).records;
  ASSERT_EQ(reread.size(), records.size());

  const OfflineResult direct = analyze_offline(records);
  const OfflineResult via_archive = analyze_offline(reread);
  ASSERT_FALSE(direct.estimates_bps.empty());
  ASSERT_EQ(direct.estimates_bps.size(), via_archive.estimates_bps.size());
  EXPECT_EQ(direct.observations.size(), via_archive.observations.size());
  for (std::size_t i = 0; i < direct.estimates_bps.size(); ++i) {
    EXPECT_EQ(direct.estimates_bps[i].first, via_archive.estimates_bps[i].first);
    EXPECT_EQ(direct.estimates_bps[i].second, via_archive.estimates_bps[i].second);
  }
}

TEST(OfflineAnalysisTest, EmptyTraceYieldsNothing) {
  const OfflineResult result = analyze_offline({});
  EXPECT_EQ(result.flows_analyzed, 0u);
  EXPECT_TRUE(result.estimates_bps.empty());
}

// --- active prober ----------------------------------------------------------------

class ActiveProberSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(ActiveProberSweepTest, BinarySearchFindsResidual) {
  const double cross_rate = GetParam();
  topo::LanMeasurement run(cross_rate);
  ActiveProber prober(run.stack, run.tb.sender, run.tb.receiver, 8800, 100e6);
  double estimate = 0;
  prober.start([&](double bps) { estimate = bps; });
  run.sim.run_until(seconds(20.0));

  ASSERT_TRUE(prober.finished());
  const double truth = run.truth_bps();
  EXPECT_NEAR(estimate, truth, 0.25 * truth) << "cross " << cross_rate;
  EXPECT_GT(prober.bytes_injected(), 0u);  // the cost Wren avoids
  EXPECT_EQ(prober.trains_sent(), kProbeIterations * kProbeTrainsPerRate);
}

INSTANTIATE_TEST_SUITE_P(CrossRates, ActiveProberSweepTest,
                         ::testing::Values(0.0, 30e6, 60e6));

TEST(ActiveProberTest, InjectsSubstantialProbeTraffic) {
  topo::LanMeasurement run;
  ActiveProber prober(run.stack, run.tb.sender, run.tb.receiver, 8800, 100e6);
  prober.start(nullptr);
  run.sim.run_until(seconds(20.0));
  // 10 trains x 24 packets x ~1228B.
  EXPECT_GT(prober.bytes_injected(), 250'000u);
}

// Destroyed mid-search, the prober leaves no probe or evaluation event
// behind: once the last probes drain, nothing is scheduled.
TEST(ActiveProberTest, DestroyedMidSearch) {
  sim::Simulator sim;
  const topo::LanTestbed tb = topo::make_lan_testbed(sim);
  transport::TransportStack stack(*tb.network);
  auto prober = std::make_unique<ActiveProber>(stack, tb.sender, tb.receiver, 8800, 100e6);
  prober->start(nullptr);
  sim.run_until(seconds(1.0));
  ASSERT_FALSE(prober->finished());
  ASSERT_GT(prober->trains_sent(), 0u);
  prober.reset();
  sim.run_until(seconds(3.0));
  EXPECT_FALSE(sim.has_pending());
}

}  // namespace
}  // namespace vw::wren
