// Tests for the federated measurement plane (DESIGN.md §5i): region
// assignment, the vw.fedsum.v1 summary codec (round-trip + corrupt-input
// rejection in the style of trace_binary_test.cpp), the WrenReport XML
// codec, the RegionalProxy top-k/aggregate export policy, the root-tier
// fold-in (timestamps, seq gaps, coverage, liveness) — and the serial
// oracle: with one region and sampling off, the federated plane reproduces
// the flat GlobalNetworkView bit-identically.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "wren/federation.hpp"
#include "wren/view.hpp"

namespace vw::wren {
namespace {

// --- RegionMap ---------------------------------------------------------------

TEST(RegionMapTest, RoundRobinBalances) {
  const std::vector<net::NodeId> hosts = {10, 11, 12, 13, 14, 15, 16};
  const RegionMap rr = RegionMap::round_robin(hosts, 3);
  EXPECT_EQ(rr.region_count(), 3u);
  EXPECT_EQ(rr.region_of(10), 0u);
  EXPECT_EQ(rr.region_of(11), 1u);
  EXPECT_EQ(rr.region_of(12), 2u);
  EXPECT_EQ(rr.region_of(13), 0u);
  EXPECT_EQ(rr.hosts_in(0).size(), 3u);
  EXPECT_EQ(rr.hosts_in(2).size(), 2u);
  EXPECT_EQ(rr.region_of(999), kInvalidRegion);
}

// --- vw.fedsum.v1 codec ------------------------------------------------------

FederationSummary sample_summary() {
  FederationSummary s;
  s.region = 2;
  s.created_at = seconds(12.5);
  s.seq = 7;
  s.total_pairs = 5;
  s.entries.push_back({1, 2, 80e6, 0.004, seconds(11.0), true, true});
  s.entries.push_back({3, 4, 10e6, 0.0, seconds(12.0), true, false});
  s.entries.push_back({5, 6, 0.0, 0.25, seconds(9.0), false, true});
  s.aggregates.push_back({2, 0, 3, 40e6, 10e6, 0.01});
  s.aggregates.push_back({2, 1, 1, 9e6, 9e6, 0.2});
  s.hosts.push_back({1, seconds(12.4)});
  s.hosts.push_back({3, seconds(12.1)});
  return s;
}

TEST(SummaryCodecTest, RoundTripPreservesEveryField) {
  const FederationSummary s = sample_summary();
  const std::vector<unsigned char> bytes = encode_summary(s);
  EXPECT_EQ(bytes.size(), kSummaryHeaderSize + 3 * kSummaryEntrySize +
                              2 * kSummaryAggregateSize + 2 * kSummaryHostSize);
  const FederationSummary back = decode_summary(bytes);
  EXPECT_EQ(back, s);
}

TEST(SummaryCodecTest, EmptySummaryRoundTrips) {
  FederationSummary s;
  s.region = 0;
  s.seq = 1;
  const FederationSummary back = decode_summary(encode_summary(s));
  EXPECT_EQ(back, s);
}

TEST(SummaryCodecTest, HexArmorRoundTripsAndRejectsGarbage) {
  const FederationSummary s = sample_summary();
  const std::string hex = summary_to_hex(s);
  EXPECT_EQ(hex.size(), 2 * encode_summary(s).size());
  EXPECT_EQ(summary_from_hex(hex), s);

  EXPECT_THROW(summary_from_hex(hex.substr(0, hex.size() - 1)), std::runtime_error);
  std::string bad = hex;
  bad[3] = 'z';
  EXPECT_THROW(summary_from_hex(bad), std::runtime_error);
}

TEST(SummaryCodecTest, RejectsTruncatedHeader) {
  const std::vector<unsigned char> bytes = encode_summary(sample_summary());
  EXPECT_THROW(decode_summary(bytes.data(), kSummaryHeaderSize - 1), std::runtime_error);
  EXPECT_THROW(decode_summary(bytes.data(), 0), std::runtime_error);
}

TEST(SummaryCodecTest, RejectsBadMagicAndFutureVersion) {
  std::vector<unsigned char> bytes = encode_summary(sample_summary());
  std::vector<unsigned char> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(decode_summary(bad_magic), std::runtime_error);

  std::vector<unsigned char> future = bytes;
  future[8] = 0x7f;  // version little-endian low byte
  EXPECT_THROW(decode_summary(future), std::runtime_error);
}

TEST(SummaryCodecTest, RejectsTruncatedRecordsAndTrailingBytes) {
  const std::vector<unsigned char> bytes = encode_summary(sample_summary());
  // Record section shorter than the header's counts promise.
  EXPECT_THROW(decode_summary(bytes.data(), bytes.size() - 1), std::runtime_error);
  EXPECT_THROW(decode_summary(bytes.data(), kSummaryHeaderSize + kSummaryEntrySize),
               std::runtime_error);
  // Bytes beyond the last promised record.
  std::vector<unsigned char> trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(decode_summary(trailing), std::runtime_error);
}

// --- WrenReport XML codec ----------------------------------------------------

TEST(WrenReportCodecTest, RoundTripsReadings) {
  std::vector<PathReading> in;
  in.push_back({7, 55e6, 0.003});
  in.push_back({9, std::nullopt, 0.5});
  in.push_back({11, 1e6, std::nullopt});
  const soap::XmlNode msg = encode_wren_report_xml(3, in);

  std::vector<PathReading> out;
  std::uint64_t rejected = 0;
  EXPECT_EQ(parse_wren_report_xml(msg, out, &rejected), 3u);
  EXPECT_EQ(rejected, 0u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].peer, 7u);
  EXPECT_DOUBLE_EQ(*out[0].bandwidth_bps, 55e6);
  EXPECT_DOUBLE_EQ(*out[0].latency_s, 0.003);
  EXPECT_FALSE(out[1].bandwidth_bps.has_value());
  EXPECT_DOUBLE_EQ(*out[1].latency_s, 0.5);
  EXPECT_FALSE(out[2].latency_s.has_value());
}

TEST(WrenReportCodecTest, DropsAndCountsPoisonedValues) {
  soap::XmlNode msg;
  msg.name = "WrenReport";
  msg.attributes["reporter"] = "5";
  soap::XmlNode& p1 = msg.add_child("peer");
  p1.attributes["id"] = "6";
  p1.attributes["bw"] = "nan";
  p1.attributes["lat"] = "0.01";
  soap::XmlNode& p2 = msg.add_child("peer");
  p2.attributes["id"] = "7";
  p2.attributes["bw"] = "-3.0";
  soap::XmlNode& p3 = msg.add_child("peer");
  p3.attributes["id"] = "8";
  p3.attributes["lat"] = "inf";

  std::vector<PathReading> out;
  std::uint64_t rejected = 0;
  EXPECT_EQ(parse_wren_report_xml(msg, out, &rejected), 5u);
  // NaN bw, negative bw, Inf lat all rejected; only peer 6's latency lives.
  EXPECT_EQ(rejected, 3u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].peer, 6u);
  EXPECT_FALSE(out[0].bandwidth_bps.has_value());
  EXPECT_DOUBLE_EQ(*out[0].latency_s, 0.01);
}

TEST(WrenReportCodecTest, UndecodableFieldThrowsWithoutPartialOutput) {
  const soap::XmlNode good = encode_wren_report_xml(3, {{7, 55e6, 0.003}, {9, 1e6, 0.5}});
  // (child index, attribute, value); -1 is the root. Peer 9 comes second,
  // so nothing decoded from peer 7 may leak out.
  const std::vector<std::tuple<int, std::string, std::string>> cases = {
      {-1, "reporter", "3x"}, {-1, "reporter", ""}, {1, "id", "-9"},
      {1, "id", "9 "},        {1, "bw", "fast"},    {1, "lat", "0.5s"}};
  for (const auto& [child, attr, value] : cases) {
    soap::XmlNode bad = good;
    (child < 0 ? bad : bad.children[child]).attributes[attr] = value;
    std::vector<PathReading> out;
    std::uint64_t rejected = 0;
    EXPECT_THROW(parse_wren_report_xml(bad, out, &rejected), std::runtime_error) << value;
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(rejected, 0u);
  }
}

// --- RegionalProxy export policy ---------------------------------------------

TEST(RegionalProxyTest, TopKKeepsDemandWeightedPairsAndCountsSuppression) {
  const std::vector<net::NodeId> hosts = {1, 2, 3, 4};
  const RegionMap rm = RegionMap::round_robin(hosts, 1);
  RegionalProxyParams params;
  params.summary_max_pairs = 2;
  RegionalProxy proxy(0, rm, params);

  proxy.apply_report(1, {{2, 10e6, std::nullopt}}, seconds(1.0));
  proxy.apply_report(2, {{3, 20e6, std::nullopt}}, seconds(2.0));
  proxy.apply_report(3, {{4, 30e6, std::nullopt}}, seconds(3.0));
  proxy.apply_report(4, {{1, 40e6, std::nullopt}}, seconds(4.0));

  // The demand hint forces the *oldest* pair into the top-k; the other slot
  // goes to the most recently updated pair.
  proxy.set_demand_weight(1, 2, 5.0);
  const FederationSummary s = proxy.build_summary(seconds(5.0));
  EXPECT_EQ(s.seq, 1u);
  EXPECT_EQ(s.total_pairs, 4u);
  ASSERT_EQ(s.entries.size(), 2u);
  EXPECT_EQ(s.entries[0].from, 1u);
  EXPECT_EQ(s.entries[0].to, 2u);
  EXPECT_EQ(s.entries[1].from, 4u);
  EXPECT_EQ(s.entries[1].to, 1u);
  EXPECT_EQ(proxy.entries_exported(), 2u);
  EXPECT_EQ(proxy.entries_suppressed(), 2u);

  // Aggregates cover the suppressed mass: all four pairs roll up.
  ASSERT_EQ(s.aggregates.size(), 1u);
  EXPECT_EQ(s.aggregates[0].pair_count, 4u);
  EXPECT_DOUBLE_EQ(s.aggregates[0].min_bandwidth_bps, 10e6);
  EXPECT_DOUBLE_EQ(s.aggregates[0].mean_bandwidth_bps, 25e6);

  // Liveness evidence rides along for every reporter heard from.
  EXPECT_EQ(s.hosts.size(), 4u);

  // force_full bypasses sampling once (window-gap healing).
  const FederationSummary full = proxy.build_summary(seconds(6.0), /*force_full=*/true);
  EXPECT_EQ(full.seq, 2u);
  EXPECT_EQ(full.entries.size(), 4u);
}

// --- FederationRoot ----------------------------------------------------------

TEST(FederationRootTest, AppliesEntriesWithOriginalTimestampsAndTracksSeqGaps) {
  const std::vector<net::NodeId> hosts = {1, 2, 3, 4};
  const RegionMap rm = RegionMap::round_robin(hosts, 2);
  GlobalNetworkView root_view;
  FederationRoot root(root_view, rm);

  std::vector<std::pair<net::NodeId, SimTime>> seen;
  root.set_host_seen_fn([&](net::NodeId h, SimTime at) { seen.push_back({h, at}); });

  FederationSummary s;
  s.region = 0;
  s.seq = 1;
  s.total_pairs = 1;
  s.entries.push_back({1, 3, 70e6, 0.002, seconds(3.0), true, true});
  s.hosts.push_back({1, seconds(4.0)});
  EXPECT_EQ(root.apply_summary(s, seconds(10.0)), 0u);  // the first proves nothing lost

  // TTL consistency contract: the entry lands with its *regional* timestamp.
  ASSERT_EQ(root_view.entries().size(), 1u);
  EXPECT_EQ(root_view.entries().begin()->second.updated_at, seconds(3.0));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, 1u);
  EXPECT_EQ(seen[0].second, seconds(4.0));

  // Skipping seq 2 is a detected gap, reported to the caller; the next
  // seq, a duplicate and a regression are not.
  s.seq = 3;
  EXPECT_EQ(root.apply_summary(s, seconds(12.0)), 1u);
  EXPECT_EQ(root.seq_gaps(), 1u);
  s.seq = 4;
  EXPECT_EQ(root.apply_summary(s, seconds(13.0)), 0u);
  EXPECT_EQ(root.apply_summary(s, seconds(13.5)), 0u);  // replayed duplicate
  s.seq = 2;
  EXPECT_EQ(root.apply_summary(s, seconds(14.0)), 0u);  // regressed
  EXPECT_EQ(root.seq_gaps(), 1u);
  // The regression did not rewind the region: seq 5 follows 4 with no gap,
  // and seq 8 reports the two in between.
  s.seq = 5;
  EXPECT_EQ(root.apply_summary(s, seconds(15.0)), 0u);
  s.seq = 8;
  EXPECT_EQ(root.apply_summary(s, seconds(16.0)), 2u);
  // Another region's sequence is its own.
  s.region = 1;
  s.seq = 1;
  EXPECT_EQ(root.apply_summary(s, seconds(17.0)), 0u);
  EXPECT_EQ(root.seq_gaps(), 3u);
  EXPECT_EQ(root.summaries_applied(), 8u);
}

TEST(FederationRootTest, AggregateFallbackAndCoverage) {
  const std::vector<net::NodeId> hosts = {1, 2, 3, 4};
  const RegionMap rm = RegionMap::round_robin(hosts, 2);  // {1,3}->0, {2,4}->1
  GlobalNetworkView root_view;
  FederationRoot root(root_view, rm);

  FederationSummary s;
  s.region = 0;
  s.seq = 1;
  s.total_pairs = 4;
  s.entries.push_back({1, 3, 70e6, 0.002, seconds(3.0), true, true});
  s.aggregates.push_back({0, 1, 3, 12e6, 4e6, 0.05});
  root.apply_summary(s, seconds(10.0));

  // (1 -> 2) crosses region 0 -> 1: no exact entry, aggregate answers.
  ASSERT_TRUE(root.aggregate_bandwidth(1, 2).has_value());
  EXPECT_DOUBLE_EQ(*root.aggregate_bandwidth(1, 2), 12e6);
  ASSERT_TRUE(root.aggregate_latency(1, 2).has_value());
  EXPECT_DOUBLE_EQ(*root.aggregate_latency(1, 2), 0.05);
  // (2 -> 1) is region 1 -> 0: no aggregate row exported for it.
  EXPECT_FALSE(root.aggregate_bandwidth(2, 1).has_value());
  // Unassigned hosts never match an aggregate.
  EXPECT_FALSE(root.aggregate_bandwidth(999, 2).has_value());

  // Coverage: region 0 exported 1 of 4 fresh pairs.
  EXPECT_DOUBLE_EQ(root.coverage(), 0.25);
}

// --- serial oracle -----------------------------------------------------------

// With one region and sampling off, daemon reports folded through the
// RegionalProxy -> vw.fedsum.v1 -> FederationRoot path must reproduce the
// flat GlobalNetworkView *bit-identically* — same pairs, same values, same
// timestamps. This is the ISSUE-9 differential gate in unit form.
TEST(FederationOracleTest, SingleRegionNoSamplingReproducesFlatViewBitIdentically) {
  const std::vector<net::NodeId> hosts = {1, 2, 3, 4, 5};
  const RegionMap rm = RegionMap::round_robin(hosts, 1);

  RegionalProxyParams params;
  params.summary_max_pairs = 0;  // sampling off
  RegionalProxy proxy(0, rm, params);

  GlobalNetworkView flat;

  // A spread of reports: bandwidth-only, latency-only, both, re-updates.
  struct Report {
    net::NodeId from, to;
    std::optional<double> bw, lat;
    SimTime at;
  };
  const std::vector<Report> reports = {
      {1, 2, 80e6, 0.001, seconds(1.0)},  {2, 1, 60e6, std::nullopt, seconds(1.5)},
      {3, 4, std::nullopt, 0.2, seconds(2.0)}, {1, 2, 90e6, std::nullopt, seconds(3.0)},
      {4, 5, 5e6, 0.05, seconds(3.5)},    {5, 1, 1e9, 0.0001, seconds(4.0)},
  };
  for (const Report& r : reports) {
    proxy.apply_report(r.from, {{r.to, r.bw, r.lat}}, r.at);
    if (r.bw) flat.update_bandwidth(r.from, r.to, *r.bw, r.at);
    if (r.lat) flat.update_latency(r.from, r.to, *r.lat, r.at);
  }

  const FederationSummary summary = proxy.build_summary(seconds(5.0));
  EXPECT_EQ(summary.entries.size(), flat.entries().size());
  EXPECT_EQ(proxy.entries_suppressed(), 0u);

  // Cross the wire: binary codec + hex armor, like the real control plane.
  const FederationSummary shipped = summary_from_hex(summary_to_hex(summary));

  GlobalNetworkView root_view;
  FederationRoot root(root_view, rm);
  root.apply_summary(shipped, seconds(6.0));

  EXPECT_EQ(root_view.entries(), flat.entries());
}

}  // namespace
}  // namespace vw::wren
