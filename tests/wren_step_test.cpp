// The collection step against its oracle, the every-tick step.
//
// wren::FlowAnalyzer::step processes only flows with new records or a
// deadline behind the tick, and re-folds only the peers of the flows it
// stepped. The oracle below is the step as it was before that: at every
// tick, every flow ever seen flushes a run idle past kMaxTrainGap, runs
// process(now) and folds into its peer, in flow order. Fed the same
// records, both must emit the same observation series and hold the same
// per-peer bandwidth, RTT and capacity after every tick:
//
//  * live, on the Figure 2 LAN (topo::LanMeasurement) over the grid of
//    cross rates × message spacings, against the real OnlineAnalyzer;
//  * replayed, on every daemon's shard of the TCP-overlay chaos run;
//  * replayed, on small hand-made traces that each make one deadline (pending
//    timeout, flush, window age, ACK trim) or a same-time tie between two
//    flows to one peer decide an outcome, which the other inputs do rarely
//    or never.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "topo/lan_measurement.hpp"
#include "virtuoso/challenge.hpp"
#include "wren/analyzer.hpp"
#include "wren/sic.hpp"
#include "wren/trace.hpp"
#include "wren/trace_binary.hpp"
#include "wren/train.hpp"

namespace vw::wren {
namespace {

using Observations = std::vector<std::pair<net::NodeId, SicObservation>>;

// --- the oracle -----------------------------------------------------------------

class EveryTickAnalyzer {
 public:
  /// Routes like FlowAnalyzer::add.
  void add(const PacketRecord& record) {
    if (is_outgoing_data(record)) {
      auto [it, opened] = flows_.try_emplace(record.flow);
      if (opened) it->second = std::make_unique<Flow>(record.flow, observations_);
      it->second->extractor.add(record);
      it->second->last_outgoing = record.timestamp;
    } else if (is_incoming_ack(record)) {
      auto it = flows_.find(record.flow.reversed());
      if (it != flows_.end()) it->second->estimator.add_ack(record.timestamp, record.ack);
    }
  }

  void step(SimTime now) {
    for (auto& [key, flow] : flows_) {
      if (flow->last_outgoing != 0 && now - flow->last_outgoing > kMaxTrainGap) {
        flow->extractor.flush();
      }
      flow->estimator.process(now);
      fold(flow->estimator, peers_[key.dst]);
    }
  }

  const Observations& observations() const { return observations_; }
  const std::map<net::NodeId, FlowAnalyzer::PeerEstimate>& peers() const { return peers_; }

 private:
  struct Flow {
    Flow(const net::FlowKey& key, Observations& out)
        : extractor(key, TrainParams{}, [this](const Train& t) { estimator.add_train(t); }) {
      estimator.set_on_observation(
          [&out, peer = key.dst](const SicObservation& o) { out.push_back({peer, o}); });
    }
    SicEstimator estimator;
    TrainExtractor extractor;
    SimTime last_outgoing = 0;
  };

  static void fold(const SicEstimator& estimator, FlowAnalyzer::PeerEstimate& peer) {
    if (auto est = estimator.estimate_bps(); est && !estimator.window().empty()) {
      const SimTime obs_at = estimator.window().back().time;
      if (obs_at >= peer.bandwidth_at) {
        peer.bandwidth_bps = est;
        peer.bandwidth_at = obs_at;
      }
    }
    if (auto rtt = estimator.min_rtt_seconds();
        rtt && (!peer.min_rtt_s || *rtt < *peer.min_rtt_s)) {
      peer.min_rtt_s = rtt;
    }
    if (auto cap = estimator.capacity_estimate_bps();
        cap && (!peer.capacity_bps || *cap > *peer.capacity_bps)) {
      peer.capacity_bps = cap;
    }
  }

  std::map<net::FlowKey, std::unique_ptr<Flow>> flows_;
  std::map<net::NodeId, FlowAnalyzer::PeerEstimate> peers_;
  Observations observations_;
};

// --- comparison -----------------------------------------------------------------

std::string show(const std::optional<double>& v) {
  std::ostringstream out;
  out.precision(17);
  if (v) {
    out << *v;
  } else {
    out << "none";
  }
  return out.str();
}

/// Compares after each tick and keeps the first divergence.
class Differential {
 public:
  /// Observations both sides emitted since the last tick must agree.
  void observations(SimTime tick, const Observations& step, const Observations& oracle) {
    if (!first_.empty()) return;
    if (step.size() != oracle.size()) {
      fail(tick, "observation count " + std::to_string(step.size()) + " vs oracle " +
                     std::to_string(oracle.size()));
      return;
    }
    for (; compared_ < oracle.size(); ++compared_) {
      if (step[compared_] != oracle[compared_]) {
        fail(tick, "observation #" + std::to_string(compared_) + " differs");
        return;
      }
    }
  }

  void value(SimTime tick, net::NodeId peer, const char* what, const std::optional<double>& step,
             const std::optional<double>& oracle) {
    if (first_.empty() && step != oracle) {
      fail(tick, std::string(what) + " toward " + std::to_string(peer) + ": " + show(step) +
                     " vs oracle " + show(oracle));
    }
  }

  void peers(SimTime tick, const std::vector<net::NodeId>& step,
             const std::map<net::NodeId, FlowAnalyzer::PeerEstimate>& oracle) {
    std::vector<net::NodeId> ids;
    for (const auto& [peer, estimate] : oracle) ids.push_back(peer);
    if (first_.empty() && step != ids) fail(tick, "peer sets differ");
  }

  /// Every field of the folded estimates.
  void estimates(SimTime tick, const FlowAnalyzer& step, const EveryTickAnalyzer& oracle) {
    peers(tick, step.peer_ids(), oracle.peers());
    for (const auto& [peer, want] : oracle.peers()) {
      const FlowAnalyzer::PeerEstimate* got = step.peer(peer);
      if (got == nullptr) return fail(tick, "no estimate toward " + std::to_string(peer));
      value(tick, peer, "bandwidth", got->bandwidth_bps, want.bandwidth_bps);
      value(tick, peer, "bandwidth time", static_cast<double>(got->bandwidth_at),
            static_cast<double>(want.bandwidth_at));
      value(tick, peer, "min RTT", got->min_rtt_s, want.min_rtt_s);
      value(tick, peer, "capacity", got->capacity_bps, want.capacity_bps);
    }
  }

  std::size_t compared() const { return compared_; }
  const std::string& first_divergence() const { return first_; }

 private:
  void fail(SimTime tick, const std::string& what) {
    if (first_.empty()) first_ = "at t=" + std::to_string(tick) + " ns: " + what;
  }

  std::size_t compared_ = 0;
  std::string first_;
};

// --- replayed traces ------------------------------------------------------------

struct ReplayResult {
  std::string divergence;
  std::size_t observations = 0;
  std::uint64_t flows_stepped = 0;
  std::uint64_t flow_ticks = 0;  ///< ticks × flows open at each
};

/// Replays `records` through both at the online cadence (as analyze_offline
/// does), comparing after every tick until every deadline the last record
/// could arm has passed.
ReplayResult replay(const std::vector<PacketRecord>& records) {
  Observations stepped;
  FlowAnalyzer step(WrenParams{}, [&stepped](const net::FlowKey& flow, const SicObservation& o) {
    stepped.push_back({flow.dst, o});
  });
  EveryTickAnalyzer oracle;
  Differential diff;
  ReplayResult result;
  SimTime tick = kCollectPeriod;
  const auto run_ticks_before = [&](SimTime t) {
    for (; tick < t; tick += kCollectPeriod) {
      result.flows_stepped += step.step(tick);
      oracle.step(tick);
      result.flow_ticks += step.flows().size();
      diff.observations(tick, stepped, oracle.observations());
      diff.estimates(tick, step, oracle);
    }
  };
  SimTime last = 0;
  for (const PacketRecord& r : records) {
    run_ticks_before(r.timestamp);
    last = std::max(last, r.timestamp);
    step.add(r);
    oracle.add(r);
  }
  run_ticks_before(last + 2 * kPendingTimeout + kWindowAge + kCollectPeriod);
  result.divergence = diff.first_divergence();
  result.observations = diff.compared();
  return result;
}

// Hand-made traces: host 1 sends 1460-byte segments (1500 B on the wire) to
// host 2.
constexpr net::NodeId kHost = 1;
constexpr net::NodeId kPeer = 2;

net::FlowKey flow_on(std::uint16_t port) {
  return net::FlowKey{kHost, kPeer, port, 9000, net::Protocol::kTcp};
}

PacketRecord data(std::uint16_t port, SimTime at, std::uint64_t seq) {
  PacketRecord r;
  r.timestamp = at;
  r.direction = net::TapDirection::kOutgoing;
  r.flow = flow_on(port);
  r.payload_bytes = 1460;
  r.wire_bytes = 1500;
  r.seq = seq;
  return r;
}

PacketRecord ack(std::uint16_t port, SimTime at, std::uint64_t covered) {
  PacketRecord r;
  r.timestamp = at;
  r.direction = net::TapDirection::kIncoming;
  r.flow = flow_on(port).reversed();
  r.is_ack = true;
  r.ack = covered;
  return r;
}

/// A 10-packet train on `port` from `start`, `spacing` apart, starting at
/// byte `seq`; with `ack_delay` >= 0 each packet is ACKed that long after it
/// left, the RTT growing by `rtt_growth` per packet.
void train(std::vector<PacketRecord>& out, std::uint16_t port, SimTime start, SimTime spacing,
           std::uint64_t seq, SimTime ack_delay, SimTime rtt_growth = 0) {
  for (int i = 0; i < 10; ++i) {
    const SimTime sent = start + i * spacing;
    out.push_back(data(port, sent, seq + 1460ull * i));
    if (ack_delay >= 0) {
      out.push_back(ack(port, sent + ack_delay + i * rtt_growth, seq + 1460ull * (i + 1)));
    }
  }
}

std::vector<PacketRecord> time_sorted(std::vector<PacketRecord> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const PacketRecord& a, const PacketRecord& b) {
                     return a.timestamp < b.timestamp;
                   });
  return records;
}

TEST(CollectionStepDifferentialTest, PendingTrainTimesOutWhileItsFlowIsIdle) {
  // The train's ACKs come back only after kPendingTimeout: the oracle drops
  // the train at the first tick past its timeout, so the late ACKs complete
  // nothing. A step that waited for them would evaluate it.
  std::vector<PacketRecord> records;
  train(records, 1000, seconds(1.0), micros(120), 0, -1);
  const SimTime late = seconds(1.0) + kPendingTimeout + millis(450);
  for (int i = 0; i < 10; ++i) {
    records.push_back(ack(1000, late + i * micros(120), 1460ull * (i + 1)));
  }
  const ReplayResult r = replay(time_sorted(records));
  EXPECT_EQ(r.divergence, "");
  EXPECT_EQ(r.observations, 0u);  // the timeout, not the ACKs, settled the train
}

TEST(CollectionStepDifferentialTest, IdleRunIsFlushedWithoutNewRecords) {
  // A burst ends 19 ms before a tick with its ACKs all in: that tick is too
  // early to flush, and no record follows, so only the flush deadline turns
  // the run into a train at the next tick.
  std::vector<PacketRecord> records;
  train(records, 1000, millis(1080), micros(120), 0, millis(1));
  const ReplayResult r = replay(time_sorted(records));
  EXPECT_EQ(r.divergence, "");
  EXPECT_EQ(r.observations, 1u);
}

TEST(CollectionStepDifferentialTest, WindowAgesOutBeforeALaterTrainIsFused) {
  // A congested burst, kWindowAge + 1 s of silence, then a slower burst cut
  // by a late packet, so its train is extracted, matched and evaluated in
  // one tick. It must be fused without the first observation, which only
  // the window deadline removed: nothing else stepped the idle flow.
  std::vector<PacketRecord> records;
  train(records, 1000, seconds(1.0), micros(120), 0, millis(1), micros(30));
  const SimTime second = seconds(1.0) + kWindowAge + millis(1010);
  train(records, 1000, second, micros(240), 14'600, millis(1));
  const SimTime late = second + 9 * micros(240) + millis(2);  // breaks the spacing
  records.push_back(data(1000, late, 29'200));
  records.push_back(ack(1000, late + millis(1), 30'660));
  const ReplayResult r = replay(time_sorted(records));
  EXPECT_EQ(r.divergence, "");
  EXPECT_EQ(r.observations, 2u);
}

TEST(CollectionStepDifferentialTest, AckHistoryTrimsWhileItsFlowIsIdle) {
  // Two seconds of steady progress (a burst every 10 ms), 2 * kPendingTimeout
  // + 1 s of silence, then one badly congested train. Its estimate sits on
  // the achieved-rate floor, which spans the held ACK history: only the trim
  // deadline has cut that history to two ACKs by then.
  std::vector<PacketRecord> records;
  std::uint64_t seq = 0;
  for (int burst = 0; burst < 200; ++burst) {
    train(records, 1000, seconds(1.0) + burst * millis(10), micros(120), seq, millis(1));
    seq += 14'600;
  }
  train(records, 1000, seconds(3.0) + 2 * kPendingTimeout + millis(1010), micros(120), seq,
        millis(1), micros(1080));
  const ReplayResult r = replay(time_sorted(records));
  EXPECT_EQ(r.divergence, "");
  EXPECT_GT(r.observations, 200u);
}

TEST(CollectionStepDifferentialTest, SameTimeTieBetweenTwoFlowsToOnePeer) {
  // Two flows to one peer whose last ACKs arrive at the same instant: the
  // later flow in flow order owns the peer's bandwidth. A new data record
  // on the earlier flow alone steps only that flow; the peer's estimate
  // must still come out of folding both.
  std::vector<PacketRecord> records;
  train(records, 1000, seconds(1.0), micros(120), 0, millis(1));
  train(records, 1001, seconds(1.0) + micros(540), micros(60), 0, -1);
  // Flow 1001's ACKs: same arrival times as flow 1000's.
  for (int i = 0; i < 10; ++i) {
    records.push_back(ack(1001, seconds(1.0) + millis(1) + i * micros(120), 1460ull * (i + 1)));
  }
  records.push_back(data(1000, seconds(2.0), 14'600));
  const ReplayResult r = replay(time_sorted(records));
  EXPECT_EQ(r.divergence, "");
  EXPECT_EQ(r.observations, 2u);
}

TEST(CollectionStepDifferentialTest, TcpOverlayChaosShardsMatchTheOracle) {
  // Every daemon's shard of the seed-42 chaos run over the TCP overlay:
  // control, migration and VM traffic, an 18 s inter-domain outage and the
  // idle gaps around it.
  const std::string dir = ::testing::TempDir() + "wren-step-chaos-tcp";
  std::vector<net::NodeId> hosts;
  {
    virtuoso::SystemConfig config;
    config.seed = 42;
    config.telemetry = false;
    config.capture_dir = dir;
    virtuoso::ChaosScenario run(config, vnet::LinkProtocol::kTcp);
    hosts = run.tb.hosts();
    run.sim.run_until(seconds(60.0));
    run.workload.app.stop();
    run.system.finish_capture();
  }
  std::size_t observations = 0;
  std::uint64_t flow_ticks = 0, stepped = 0;
  for (net::NodeId host : hosts) {
    const BinaryTrace shard =
        read_trace_binary_file(dir + "/trace_host" + std::to_string(host) + ".vwtrace");
    const ReplayResult r = replay(shard.records);
    EXPECT_EQ(r.divergence, "") << "host " << host;
    observations += r.observations;
    stepped += r.flows_stepped;
    flow_ticks += r.flow_ticks;
  }
  EXPECT_GT(observations, 5000u);
  EXPECT_LT(2 * stepped, flow_ticks);  // most flows sit out most ticks
}

// --- live, on the LAN grid --------------------------------------------------------

struct GridCell {
  double cross_bps;
  SimTime spacing;  ///< 0: back to back
};

std::string cell_name(const ::testing::TestParamInfo<GridCell>& info) {
  const SimTime spacing = info.param.spacing;
  return "cross" + std::to_string(static_cast<int>(info.param.cross_bps / 1e6)) + "_" +
         (spacing == 0 ? std::string("back_to_back")
                       : std::to_string(spacing / millis(1)) + "ms");
}

class LanGridDifferentialTest : public ::testing::TestWithParam<GridCell> {};

TEST_P(LanGridDifferentialTest, OnlineAnalyzerMatchesTheOracleAfterEveryTick) {
  // 200 KB messages for 8 s (100 back to back), then 6 s of silence in
  // which every deadline comes due without a new record.
  const GridCell cell = GetParam();
  topo::LanMeasurement run(cell.cross_bps);
  Observations online;
  run.analyzer.set_on_observation(
      [&online](net::NodeId peer, const SicObservation& o) { online.push_back({peer, o}); });
  const auto count = static_cast<std::uint32_t>(
      cell.spacing == 0 ? 100 : seconds(8.0) / cell.spacing);
  run.send({{.count = count, .message_bytes = 200'000, .spacing = cell.spacing}});

  // The oracle taps the same host and ticks right after the analyzer: its
  // PeriodicTask is armed later, so at each tick it runs second.
  TraceFacility tap(*run.tb.network, run.tb.sender);
  EveryTickAnalyzer oracle;
  Differential diff;
  const net::NodeId peer = run.tb.receiver;
  sim::PeriodicTask oracle_tick(run.sim, kCollectPeriod, [&] {
    const SimTime now = run.sim.now();
    for (const PacketRecord& r : tap.collect()) oracle.add(r);
    oracle.step(now);
    diff.observations(now, online, oracle.observations());
    diff.peers(now, run.analyzer.peers(), oracle.peers());
    const auto it = oracle.peers().find(peer);
    if (it == oracle.peers().end()) return;
    const FlowAnalyzer::PeerEstimate& want = it->second;
    const bool fresh = want.bandwidth_bps && now - want.bandwidth_at <= kFreshness;
    diff.value(now, peer, "bandwidth", run.analyzer.available_bandwidth_bps(peer),
               fresh ? want.bandwidth_bps : std::nullopt);
    diff.value(now, peer, "latency", run.analyzer.latency_seconds(peer),
               want.min_rtt_s ? std::optional<double>(*want.min_rtt_s / 2.0) : std::nullopt);
    diff.value(now, peer, "capacity", run.analyzer.capacity_bps(peer), want.capacity_bps);
  });
  run.sim.run_until(seconds(14.0));

  EXPECT_EQ(diff.first_divergence(), "");
  EXPECT_GT(diff.compared(), 10u);
  EXPECT_TRUE(run.analyzer.capacity_bps(peer).has_value());
}

std::vector<GridCell> lan_grid() {
  std::vector<GridCell> cells;
  for (double cross : {0.0, 20e6, 40e6, 60e6, 80e6}) {
    for (SimTime spacing : {SimTime{0}, millis(10), millis(37), millis(100), millis(300)}) {
      cells.push_back(GridCell{cross, spacing});
    }
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(CrossBySpacing, LanGridDifferentialTest, ::testing::ValuesIn(lan_grid()),
                         cell_name);

}  // namespace
}  // namespace vw::wren
