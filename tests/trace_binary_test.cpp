// Tests for the vw.trace.v1 binary capture datapath: the binary codec
// (incl. corrupt-input handling), the trace facility's buffered shard sink,
// the system's per-daemon capture wiring, and the binary -> offline-replay
// differential.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "sim/simulator.hpp"
#include "topo/testbed.hpp"
#include "transport/sources.hpp"
#include "transport/stack.hpp"
#include "virtuoso/system.hpp"
#include "wren/offline.hpp"
#include "wren/trace.hpp"
#include "wren/trace_binary.hpp"

namespace vw::wren {
namespace {

std::string temp_path(const char* name) { return ::testing::TempDir() + name; }

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

// --- binary codec ------------------------------------------------------------

TEST(TraceBinaryTest, RecordRoundTrip) {
  PacketRecord r = sample_record();
  r.is_ack = true;
  r.syn = true;
  r.direction = net::TapDirection::kIncoming;
  r.ack = 0x1122334455667788ull;
  const auto buf = encode_record(r);
  const PacketRecord back = decode_record(buf.data());
  EXPECT_TRUE(r == back);
  EXPECT_EQ(back.flow.proto, net::Protocol::kTcp);  // the format is TCP-only
}

TEST(TraceBinaryTest, HeaderRoundTrip) {
  TraceFileHeader h;
  h.host = 42;
  h.shard = 3;
  h.record_count = 7;
  h.dropped = 2;
  const auto buf = encode_header(h);
  const TraceFileHeader back = decode_header(buf.data());
  EXPECT_EQ(back.host, 42u);
  EXPECT_EQ(back.shard, 3u);
  EXPECT_EQ(back.record_count, 7u);
  EXPECT_EQ(back.dropped, 2u);
}

TEST(TraceBinaryTest, FileRoundTrip) {
  std::vector<PacketRecord> records{sample_record()};
  PacketRecord second = sample_record();
  second.timestamp = millis(124);
  second.seq = 16060;
  records.push_back(second);

  TraceFileHeader h;
  h.host = 3;
  h.shard = 1;
  h.dropped = 5;
  std::stringstream ss;
  write_trace_binary(ss, h, records);
  EXPECT_EQ(ss.str().size(), kTraceHeaderSize + records.size() * kTraceRecordSize);

  const BinaryTrace back = read_trace_binary(ss);
  EXPECT_EQ(back.header.host, 3u);
  EXPECT_EQ(back.header.shard, 1u);
  EXPECT_EQ(back.header.dropped, 5u);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_TRUE(back.records[0] == records[0]);
  EXPECT_TRUE(back.records[1] == records[1]);
}

void expect_parse_error(const std::string& bytes, const char* needle) {
  std::stringstream ss(bytes);
  try {
    read_trace_binary(ss);
    FAIL() << "expected parse error mentioning '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(TraceBinaryTest, RejectsTruncatedHeader) {
  expect_parse_error(std::string(10, '\0'), "header");
}

TEST(TraceBinaryTest, RejectsBadMagic) {
  std::string bytes(kTraceHeaderSize, '\0');
  bytes.replace(0, 8, "NOTTRACE");
  expect_parse_error(bytes, "magic");
}

TEST(TraceBinaryTest, RejectsFutureVersion) {
  auto buf = encode_header(TraceFileHeader{});
  buf[8] = 99;  // version u32 LE at offset 8
  expect_parse_error(std::string(buf.begin(), buf.end()), "version");
}

TEST(TraceBinaryTest, RejectsWrongRecordSize) {
  auto buf = encode_header(TraceFileHeader{});
  buf[12] = 47;  // record_size u32 LE at offset 12
  expect_parse_error(std::string(buf.begin(), buf.end()), "record size");
}

TEST(TraceBinaryTest, RejectsTruncatedRecord) {
  TraceFileHeader h;
  std::stringstream ss;
  write_trace_binary(ss, h, {sample_record()});
  std::string bytes = ss.str();
  bytes.resize(bytes.size() - 1);
  expect_parse_error(bytes, "truncated");
}

TEST(TraceBinaryTest, RejectsRecordCountMismatch) {
  std::stringstream ss;
  write_trace_binary(ss, TraceFileHeader{}, {sample_record(), sample_record()});
  std::string bytes = ss.str();
  // Claim 3 records in the header while the body carries 2.
  bytes[24] = 3;
  expect_parse_error(bytes, "count");
  // Trailing bytes: a whole record the header does not count, or garbage.
  bytes[24] = 1;
  expect_parse_error(bytes, "count");
  expect_parse_error(ss.str() + "surplus", "truncated");
  // A header-only file claiming 2^64-1 records: the count sizes nothing, so
  // the mismatch is reported instead of an allocation failure.
  std::string huge = bytes.substr(0, kTraceHeaderSize);
  huge.replace(24, 8, 8, '\xff');
  expect_parse_error(huge, "count");
}

TEST(TraceBinaryTest, ReadFileReportsMissingPath) {
  EXPECT_THROW(read_trace_binary_file(temp_path("does-not-exist.vwtrace")),
               std::runtime_error);
}

// --- TraceFacility gauge (satellite) -----------------------------------------

TEST(TraceFacilityGaugeTest, BufferedGaugeTracksRingOccupancy) {
  sim::Simulator sim;
  net::Network net(sim);
  const net::NodeId a = net.add_host("a");
  const net::NodeId b = net.add_host("b");
  net::LinkConfig cfg;
  cfg.bits_per_sec = 100e6;
  cfg.prop_delay = micros(50);
  net.add_link(a, b, cfg);
  net.compute_routes();
  transport::TransportStack stack(net);

  TraceFacility trace(net, a);
  obs::MetricsRegistry reg;
  trace.set_obs(obs::Scope{&reg, nullptr});
  obs::Gauge& buffered = reg.gauge("wren.trace.buffered");

  std::vector<transport::MessagePhase> phases{
      {.count = 5, .message_bytes = 50'000, .spacing = millis(10), .pause_after = 0}};
  transport::MessageSource app(stack, a, b, 9000, phases);
  app.start();
  sim.run_until(seconds(2.0));

  EXPECT_GT(trace.buffered(), 0u);
  EXPECT_EQ(buffered.value(), static_cast<double>(trace.buffered()));
  const auto records = trace.collect();
  EXPECT_GT(records.size(), 0u);
  EXPECT_EQ(buffered.value(), 0.0);  // drained
}

// --- the facility's shard sink end to end -------------------------------------

struct CaptureEnv {
  sim::Simulator sim;
  net::Network net{sim};
  net::NodeId sender, receiver, sw;
  std::unique_ptr<transport::TransportStack> stack;

  CaptureEnv() {
    sender = net.add_host("s");
    receiver = net.add_host("r");
    sw = net.add_router("sw");
    net::LinkConfig cfg;
    cfg.bits_per_sec = 100e6;
    cfg.prop_delay = micros(50);
    net.add_link(sender, sw, cfg);
    net.add_link(sw, receiver, cfg);
    net.compute_routes();
    stack = std::make_unique<transport::TransportStack>(net);
  }

  void run_transfer(double run_s = 3.0) {
    std::vector<transport::MessagePhase> phases{
        {.count = 20, .message_bytes = 100'000, .spacing = millis(50), .pause_after = 0}};
    transport::MessageSource app(*stack, sender, receiver, 9000, phases);
    app.start();
    sim.run_until(seconds(run_s));
  }

  // Enough traffic to fill the shard encode buffer several times over.
  void run_long_transfer() {
    std::vector<transport::MessagePhase> phases{
        {.count = 60, .message_bytes = 200'000, .spacing = millis(100), .pause_after = 0}};
    transport::MessageSource app(*stack, sender, receiver, 9000, phases);
    app.start();
    sim.run_until(seconds(7.0));
  }
};

TEST(ShardSinkTest, CapturesExactlyWhatTheRingSees) {
  CaptureEnv env;
  const std::string path = temp_path("sink-e2e.vwtrace");
  TraceFacility facility(env.net, env.sender, 1 << 20);
  TraceFacility independent(env.net, env.sender, 1 << 20);  // a second tap, no shard
  obs::MetricsRegistry reg;
  facility.set_obs(obs::Scope{&reg, nullptr});
  EXPECT_EQ(reg.snapshot("wren.trace.writer").metrics.size(), 0u);  // no shard yet
  facility.capture_to(path, /*shard=*/7);

  env.run_transfer();
  const std::uint64_t persisted = facility.finish_capture();

  const auto expected = facility.collect();
  const BinaryTrace shard = read_trace_binary_file(path);
  EXPECT_EQ(shard.header.host, env.sender);
  EXPECT_EQ(shard.header.shard, 7u);
  EXPECT_EQ(shard.header.dropped, 0u);
  EXPECT_EQ(shard.header.record_count, shard.records.size());
  EXPECT_EQ(persisted, expected.size());
  ASSERT_EQ(shard.records.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(shard.records[i] == expected[i]) << "record " << i;
  }
  EXPECT_TRUE(independent.collect() == expected);

  // Telemetry: the sink accounted every record and byte, and no failure.
  const obs::MetricsSnapshot snap = reg.snapshot("wren.trace.writer");
  ASSERT_EQ(snap.metrics.size(), 3u);
  EXPECT_EQ(reg.counter("wren.trace.writer.captured").value(), expected.size());
  EXPECT_EQ(reg.counter("wren.trace.writer.bytes").value(),
            expected.size() * kTraceRecordSize);
  EXPECT_EQ(reg.counter("wren.trace.writer.failed").value(), 0u);
}

TEST(ShardSinkTest, ShardSpansManyBufferFlushes) {
  // Every full-buffer write and the partial tail must land in order.
  CaptureEnv env;
  const std::string path = temp_path("sink-flushes.vwtrace");
  TraceFacility facility(env.net, env.sender, 1 << 20);
  obs::MetricsRegistry reg;
  facility.capture_to(path);
  facility.set_obs(obs::Scope{&reg, nullptr});  // attaching after open works too

  env.run_long_transfer();
  facility.finish_capture();

  const auto expected = facility.collect();
  const std::size_t n = expected.size();
  ASSERT_GT(n * kTraceRecordSize, 2 * TraceFacility::kShardBufferBytes);
  const BinaryTrace shard = read_trace_binary_file(path);
  EXPECT_EQ(shard.header.record_count, n);
  ASSERT_EQ(shard.records.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(shard.records[i] == expected[i]) << "record " << i;
  }
  EXPECT_EQ(reg.counter("wren.trace.writer.bytes").value(), n * kTraceRecordSize);
}

TEST(ShardSinkTest, ShardIsLosslessWhileTheRingDropsOldest) {
  CaptureEnv env;
  const std::string path = temp_path("sink-lossless.vwtrace");
  TraceFacility small(env.net, env.sender, 16);
  TraceFacility reference(env.net, env.sender, 1 << 20);
  small.capture_to(path);
  env.run_transfer();
  small.finish_capture();

  EXPECT_GT(small.records_dropped(), 0u);
  EXPECT_EQ(small.collect().size(), 16u);
  const auto all = reference.collect();
  const BinaryTrace shard = read_trace_binary_file(path);
  EXPECT_EQ(shard.header.dropped, 0u);
  EXPECT_TRUE(shard.records == all);
}

TEST(ShardSinkTest, FinishIsIdempotentAndDestructorSafe) {
  CaptureEnv env;
  const std::string path = temp_path("sink-idem.vwtrace");
  std::uint64_t first = 0;
  {
    TraceFacility facility(env.net, env.sender);
    facility.capture_to(path);
    env.run_transfer(1.0);
    first = facility.finish_capture();
    EXPECT_EQ(facility.finish_capture(), first);  // no-op, same count
    env.run_transfer(1.5);                        // the ring still fills
    EXPECT_EQ(facility.finish_capture(), first);
  }  // the destructor finishes nothing more
  EXPECT_GT(first, 0u);
  EXPECT_EQ(read_trace_binary_file(path).header.record_count, first);

  // Without an explicit finish the destructor writes a valid shard.
  const std::string implicit = temp_path("sink-implicit.vwtrace");
  {
    TraceFacility facility(env.net, env.sender);
    facility.capture_to(implicit);
    env.run_transfer(2.0);
  }
  EXPECT_GT(read_trace_binary_file(implicit).records.size(), 0u);
}

TEST(ShardSinkTest, ThrowsWhenFileCannotBeCreated) {
  CaptureEnv env;
  TraceFacility facility(env.net, env.sender);
  EXPECT_THROW(facility.capture_to("/nonexistent-dir/x/y.vwtrace"), std::runtime_error);
  EXPECT_EQ(facility.finish_capture(), 0u);  // nothing was opened
}

TEST(ShardSinkTest, FailedWriteThrowsOnExplicitFinishOnly) {
  // A device that accepts the open and then fails every write: the records
  // never reach a file, and the explicit finish must say so.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  CaptureEnv env;
  {
    TraceFacility facility(env.net, env.sender);
    facility.capture_to("/dev/full");
    env.run_transfer(1.0);
    try {
      facility.finish_capture();
      ADD_FAILURE() << "finish_capture() returned after a failed write";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
    }
  }
  // The implicit finish in the destructor does not throw, but counts the
  // same failure.
  obs::MetricsRegistry reg;
  EXPECT_NO_THROW({
    TraceFacility facility(env.net, env.sender);
    facility.set_obs(obs::Scope{&reg, nullptr});
    facility.capture_to("/dev/full");
    env.run_transfer(2.0);
  });
  EXPECT_EQ(reg.counter("wren.trace.writer.failed").value(), 1u);
}

TEST(ShardSinkTest, OneShardPerHostIsTimeOrdered) {
  CaptureEnv env;
  const std::string dir = temp_path("capture-shards");
  std::filesystem::create_directories(dir);
  TraceFacility at_sender(env.net, env.sender);
  TraceFacility at_receiver(env.net, env.receiver);
  at_sender.capture_to(dir + "/trace_host" + std::to_string(env.sender) + ".vwtrace", 0);
  at_receiver.capture_to(dir + "/trace_host" + std::to_string(env.receiver) + ".vwtrace", 1);
  env.run_transfer();
  const std::uint64_t total = at_sender.finish_capture() + at_receiver.finish_capture();
  EXPECT_GT(total, 0u);

  std::uint64_t sum = 0;
  std::uint32_t shard = 0;
  for (const net::NodeId host : {env.sender, env.receiver}) {
    const BinaryTrace t =
        read_trace_binary_file(dir + "/trace_host" + std::to_string(host) + ".vwtrace");
    EXPECT_EQ(t.header.host, host);
    EXPECT_EQ(t.header.shard, shard++);
    for (std::size_t i = 1; i < t.records.size(); ++i) {
      EXPECT_LE(t.records[i - 1].timestamp, t.records[i].timestamp) << "host " << host;
    }
    sum += t.records.size();
  }
  EXPECT_EQ(sum, total);
}

// --- the system's capture wiring ----------------------------------------------

struct CaptureSystemEnv {
  sim::Simulator sim;
  topo::ChallengeNetwork tb;
  std::unique_ptr<virtuoso::VirtuosoSystem> system;
  std::vector<net::NodeId> add_order;

  explicit CaptureSystemEnv(const std::string& capture_dir)
      : tb(topo::make_challenge_network(sim)) {
    virtuoso::SystemConfig config;
    config.capture_dir = capture_dir;
    system = std::make_unique<virtuoso::VirtuosoSystem>(sim, *tb.network, config);
    // Add the daemons in reverse host order, so add order != host order.
    std::vector<net::NodeId> hosts = tb.hosts();
    for (auto it = hosts.rbegin(); it != hosts.rend(); ++it) {
      system->add_daemon(*it, tb.network->node(*it).name, /*is_proxy=*/add_order.empty());
      add_order.push_back(*it);
    }
    system->bootstrap(vnet::LinkProtocol::kTcp);
    vm::VirtualMachine& a = system->create_vm("vm-a", tb.domain2_hosts[0]);
    vm::VirtualMachine& b = system->create_vm("vm-b", tb.domain2_hosts[1]);
    a.send_message(b.mac(), 2'000'000);
    sim.run_until(seconds(3.0));
  }
};

TEST(SystemCaptureTest, OneShardPerDaemonHoldsWhatItsFacilityCaptured) {
  const std::string dir = temp_path("system-capture/nested");  // created by the system
  CaptureSystemEnv env(dir);
  const std::uint64_t total = env.system->finish_capture();
  EXPECT_EQ(env.system->finish_capture(), total);  // idempotent

  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < env.add_order.size(); ++i) {
    const net::NodeId host = env.add_order[i];
    const BinaryTrace shard =
        read_trace_binary_file(dir + "/trace_host" + std::to_string(host) + ".vwtrace");
    EXPECT_EQ(shard.header.host, host);
    EXPECT_EQ(shard.header.shard, i) << "shard tags follow add order";
    EXPECT_EQ(shard.header.record_count,
              env.system->wren_on(host).trace().records_captured())
        << "host " << host;
    sum += shard.header.record_count;
  }
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(sum, total);
  EXPECT_EQ(env.system->metrics()->counter("wren.trace.writer.captured").value(), total);
}

TEST(SystemCaptureTest, NoShardNoWriterCounters) {
  CaptureSystemEnv env("");
  EXPECT_EQ(env.system->finish_capture(), 0u);
  EXPECT_EQ(env.system->metrics()->snapshot("wren.trace.writer").metrics.size(), 0u);
  EXPECT_GT(env.system->metrics()->snapshot("wren.trace.captured").metrics.size(), 0u);
}

// --- the differential: binary capture replays to identical estimates ---------

TEST(BinaryReplayDifferentialTest, EstimatesBitIdenticalToInProcessAnalysis) {
  CaptureEnv env;
  const std::string path = temp_path("differential.vwtrace");
  TraceFacility facility(env.net, env.sender, 1 << 20);
  facility.capture_to(path);
  env.run_long_transfer();
  facility.finish_capture();

  const OfflineResult direct = analyze_offline(filter_useful(facility.collect()));
  const BinaryTrace shard = read_trace_binary_file(path);
  const OfflineResult replayed = analyze_offline(filter_useful(shard.records));

  ASSERT_GT(direct.observations.size(), 10u);
  ASSERT_EQ(replayed.observations.size(), direct.observations.size());
  ASSERT_EQ(replayed.estimates_bps.size(), direct.estimates_bps.size());
  for (std::size_t i = 0; i < direct.estimates_bps.size(); ++i) {
    EXPECT_EQ(replayed.estimates_bps[i].first, direct.estimates_bps[i].first);
    // Bit-identical, not EXPECT_NEAR: same records, same SIC arithmetic.
    EXPECT_EQ(replayed.estimates_bps[i].second, direct.estimates_bps[i].second);
  }
}

}  // namespace
}  // namespace vw::wren
