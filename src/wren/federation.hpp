#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/scope.hpp"
#include "soap/xml.hpp"
#include "wren/view.hpp"

// The fleet-scale federated measurement plane (DESIGN.md §5i).
//
// The paper's Proxy keeps one flat GlobalNetworkView fed by every VNET
// daemon. That dies at fleet size: O(n^2) path entries, all-pairs
// freshness, a single report sink. This layer splits the plane into tiers,
// following WLCG's regional monitoring aggregation (PAPERS.md). It only
// relays the daemons' passive Wren reports and never probes:
//
//   daemons --(WrenReport)--> RegionalProxy --(FederationSummary)--> root
//
// A RegionalProxy subscribes to the daemon report streams of its region and
// maintains a *partial* GlobalNetworkView covering only pairs its daemons
// reported. Periodically it exports a FederationSummary upward: the top-k
// hot pairs (ranked by VTTIF demand weight pushed down from the root, then
// recency), region-to-region aggregates over *all* fresh entries (so the
// suppressed mass is still represented), explicit coverage metadata, and
// the liveness evidence (hosts seen + timestamps) the root needs for its
// daemon-failure sweeps. Entry timestamps are preserved end to end, so the
// staleness-TTL contract (PR 4) is the cross-tier consistency contract: an
// entry is fresh at the root iff it would have been fresh had the daemon
// reported directly.
//
// Serial oracle: with one region and sampling off (summary_max_pairs == 0)
// every entry is exported verbatim with its original timestamp, and the
// root view reproduces the flat view bit-identically
// (tests/federation_test.cpp pins this).

namespace vw::wren {

using RegionId = std::uint32_t;
inline constexpr RegionId kInvalidRegion = 0xffffffffu;

// --- region assignment -------------------------------------------------------

/// Host -> region assignment shared by the regional proxies, the root and
/// the system's routing of daemon reports.
class RegionMap {
 public:
  void assign(net::NodeId host, RegionId region);
  /// kInvalidRegion for unassigned hosts.
  RegionId region_of(net::NodeId host) const;
  /// Number of distinct regions assigned so far.
  std::size_t region_count() const { return regions_.size(); }
  std::vector<net::NodeId> hosts_in(RegionId region) const;

  /// hosts[i] -> region i % regions (balanced, locality-blind).
  static RegionMap round_robin(const std::vector<net::NodeId>& hosts, std::size_t regions);

 private:
  std::map<net::NodeId, RegionId> assignments_;
  std::set<RegionId> regions_;
};

// --- summary payload ---------------------------------------------------------

/// One exported directed-pair measurement (PathMeasurement + its pair).
struct SummaryEntry {
  net::NodeId from = net::kInvalidNode;
  net::NodeId to = net::kInvalidNode;
  double bandwidth_bps = 0;
  double latency_s = 0;
  SimTime updated_at = 0;
  bool has_bandwidth = false;
  bool has_latency = false;

  bool operator==(const SummaryEntry&) const = default;
};

/// Region-to-region rollup over every fresh entry of the exporting region
/// (including the pairs top-k suppressed), the root's fallback capacity for
/// pairs it holds no exact entry for.
struct RegionAggregate {
  RegionId src_region = kInvalidRegion;
  RegionId dst_region = kInvalidRegion;
  std::uint64_t pair_count = 0;
  double mean_bandwidth_bps = 0;
  double min_bandwidth_bps = 0;
  double mean_latency_s = 0;

  bool operator==(const RegionAggregate&) const = default;
};

/// Liveness evidence: a daemon the regional proxy heard from, and when.
struct HostSeen {
  net::NodeId host = net::kInvalidNode;
  SimTime last_seen = 0;

  bool operator==(const HostSeen&) const = default;
};

/// One upward export. `total_pairs` is the coverage denominator (fresh
/// entries held regionally); `entries.size()` the numerator.
struct FederationSummary {
  RegionId region = kInvalidRegion;
  SimTime created_at = 0;
  std::uint64_t seq = 0;  ///< per-region monotone; the root counts gaps
  std::uint64_t total_pairs = 0;
  std::vector<SummaryEntry> entries;
  std::vector<RegionAggregate> aggregates;
  std::vector<HostSeen> hosts;

  bool operator==(const FederationSummary&) const = default;
};

// --- binary summary codec (vw.fedsum.v1) -------------------------------------
//
// Summaries cross the control plane often and must stay cheap, so they ship
// as a compact little-endian binary image (hex-armored inside the XML
// control message), in the mold of the vw.trace.v1 format:
//
//   header, 64 bytes:
//     [ 0] u64 magic        "VWFEDSM1"
//     [ 8] u32 version      1
//     [12] u32 region
//     [16] i64 created_at
//     [24] u64 seq
//     [32] u64 total_pairs
//     [40] u32 entry_count
//     [44] u32 aggregate_count
//     [48] u32 host_count
//     [52] u8[12] reserved  zero
//   entry, 40 bytes:   u32 from, u32 to, f64 bw, f64 lat, i64 updated_at,
//                      u8 flags (bit0 has_bw, bit1 has_lat), u8[7] zero
//   aggregate, 40 B:   u32 src_region, u32 dst_region, u64 pair_count,
//                      f64 mean_bw, f64 min_bw, f64 mean_lat
//   host, 16 bytes:    u32 host, u32 reserved, i64 last_seen
//
// Malformed input (short header, bad magic, future version, truncated
// records, trailing bytes) throws std::runtime_error naming the defect.

inline constexpr std::uint64_t kSummaryMagic = 0x314D534445465756ull;  // "VWFEDSM1"
inline constexpr std::uint32_t kSummaryVersion = 1;
inline constexpr std::size_t kSummaryHeaderSize = 64;
inline constexpr std::size_t kSummaryEntrySize = 40;
inline constexpr std::size_t kSummaryAggregateSize = 40;
inline constexpr std::size_t kSummaryHostSize = 16;

std::vector<unsigned char> encode_summary(const FederationSummary& summary);
FederationSummary decode_summary(const unsigned char* data, std::size_t size);
FederationSummary decode_summary(const std::vector<unsigned char>& bytes);

/// Hex armor for riding XML attributes; from-hex throws on odd length or a
/// non-hex digit.
std::string summary_to_hex(const FederationSummary& summary);
FederationSummary summary_from_hex(std::string_view hex);

// --- daemon report codec -----------------------------------------------------

/// One per-peer reading inside a daemon's WrenReport control message.
struct PathReading {
  net::NodeId peer = net::kInvalidNode;
  std::optional<double> bandwidth_bps;
  std::optional<double> latency_s;
};

/// The "WrenReport" control-plane document daemons ship upstream (shared by
/// VirtuosoSystem and the federation scenarios, so both tiers parse one
/// format).
soap::XmlNode encode_wren_report_xml(net::NodeId reporter,
                                     const std::vector<PathReading>& readings);
/// Returns the reporter and appends the readings. A field that does not
/// decode (soap::attr) throws std::runtime_error before anything is
/// appended; readings whose values fail GlobalNetworkView validation
/// (non-finite / negative) are dropped and counted into `rejected`.
net::NodeId parse_wren_report_xml(const soap::XmlNode& msg, std::vector<PathReading>& readings,
                                  std::uint64_t* rejected = nullptr);

// --- the regional tier -------------------------------------------------------

struct RegionalProxyParams {
  /// Pairs exported per summary; 0 = export everything (sampling off, the
  /// serial-oracle configuration).
  std::size_t summary_max_pairs = 64;
  /// Forwarded to the partial view (same TTL contract as the root).
  SimTime staleness_horizon = 0;
};

/// The middle tier: maintains a partial GlobalNetworkView over its region's
/// daemon reports and builds summarized exports.
class RegionalProxy {
 public:
  RegionalProxy(RegionId region, const RegionMap& region_map, RegionalProxyParams params = {});

  RegionalProxy(const RegionalProxy&) = delete;
  RegionalProxy& operator=(const RegionalProxy&) = delete;

  RegionId region() const { return region_; }
  GlobalNetworkView& view() { return view_; }
  const GlobalNetworkView& view() const { return view_; }

  /// Attach the virtual clock (forwarded to the partial view's TTL logic).
  void set_clock(std::function<SimTime()> clock) { view_.set_clock(std::move(clock)); }

  /// Fold one daemon report into the partial view. Returns readings
  /// accepted (invalid values are rejected by the view and counted there).
  std::size_t apply_report(net::NodeId reporter, const std::vector<PathReading>& readings,
                           SimTime at);

  /// Liveness evidence for `host` (heartbeat or any report).
  void note_host(net::NodeId host, SimTime at);

  /// Demand hints pushed down from the root: weight > 0 marks a hot pair
  /// that must survive top-k selection.
  void set_demand_weight(net::NodeId from, net::NodeId to, double weight);
  void clear_demand_weights();

  /// Build the next upward export (advances the summary sequence number).
  /// With `force_full`, sampling is bypassed once (the heal after the root
  /// saw this region's sequence numbers skip).
  FederationSummary build_summary(SimTime now, bool force_full = false);

  std::uint64_t entries_exported() const { return entries_exported_; }
  std::uint64_t entries_suppressed() const { return entries_suppressed_; }

  /// Attach telemetry (wren.federation.region.* counters/gauges).
  void set_obs(const obs::Scope& scope);

 private:
  RegionId region_;
  const RegionMap& region_map_;
  RegionalProxyParams params_;
  GlobalNetworkView view_;
  std::map<std::pair<net::NodeId, net::NodeId>, double> demand_weights_;
  std::map<net::NodeId, SimTime> hosts_seen_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t entries_exported_ = 0;
  std::uint64_t entries_suppressed_ = 0;
  obs::Counter* c_summaries_ = nullptr;
  obs::Counter* c_exported_ = nullptr;
  obs::Counter* c_suppressed_ = nullptr;
  obs::Gauge* g_view_pairs_ = nullptr;
};

// --- the root tier -----------------------------------------------------------

/// Folds FederationSummary exports into the root GlobalNetworkView and the
/// region-to-region aggregate table; tracks per-tier lag, coverage, and
/// summary sequence gaps.
class FederationRoot {
 public:
  /// Called for every liveness record a summary carries (host, last_seen).
  using HostSeenFn = std::function<void(net::NodeId, SimTime)>;

  FederationRoot(GlobalNetworkView& root_view, const RegionMap& region_map);

  FederationRoot(const FederationRoot&) = delete;
  FederationRoot& operator=(const FederationRoot&) = delete;

  void set_host_seen_fn(HostSeenFn fn) { host_seen_ = std::move(fn); }

  /// Apply one summary. Entries land in the root view with their original
  /// regional timestamps (the TTL consistency contract); aggregates replace
  /// this region's rows; liveness records flow to the host-seen hook.
  /// Returns how many of the region's summaries its `seq` proves lost
  /// since the last one applied (0 for the first, a duplicate or a
  /// regressed seq); the caller heals a loss with a full export.
  std::uint64_t apply_summary(const FederationSummary& summary, SimTime now);

  /// Region-level fallback for pairs the root holds no exact entry for.
  std::optional<double> aggregate_bandwidth(net::NodeId from, net::NodeId to) const;
  std::optional<double> aggregate_latency(net::NodeId from, net::NodeId to) const;

  const std::map<std::pair<RegionId, RegionId>, RegionAggregate>& aggregates() const {
    return aggregates_;
  }

  /// Exported/total ratio of the most recent summary per region, averaged;
  /// 1.0 when nothing was ever suppressed.
  double coverage() const;

  std::uint64_t summaries_applied() const { return summaries_applied_; }
  /// Summaries the per-region sequence numbers prove were lost in transit.
  std::uint64_t seq_gaps() const { return seq_gaps_; }

  /// Attach telemetry (wren.federation.* counters, lag histogram, coverage
  /// gauge).
  void set_obs(const obs::Scope& scope);

 private:
  struct RegionState {
    std::uint64_t last_seq = 0;
    std::uint64_t exported = 0;
    std::uint64_t total = 0;
  };

  GlobalNetworkView& view_;
  const RegionMap& region_map_;
  std::map<std::pair<RegionId, RegionId>, RegionAggregate> aggregates_;
  std::map<RegionId, RegionState> region_state_;
  HostSeenFn host_seen_;
  std::uint64_t summaries_applied_ = 0;
  std::uint64_t seq_gaps_ = 0;
  obs::Counter* c_summaries_ = nullptr;
  obs::Counter* c_entries_ = nullptr;
  obs::Counter* c_aggregates_ = nullptr;
  obs::Counter* c_seq_gaps_ = nullptr;
  obs::Histogram* h_lag_ = nullptr;
  obs::Gauge* g_coverage_ = nullptr;
  obs::Gauge* g_regions_ = nullptr;
};

// --- configuration (consumed by virtuoso::SystemConfig) ----------------------

struct FederationConfig {
  /// Off = the flat single-Proxy plane (pre-federation behavior).
  bool enabled = false;
  /// Daemon hosts are split round-robin into this many regions; each gets a
  /// RegionalProxy on its first host.
  std::size_t regions = 1;
  /// Regional proxies export summaries upward at this period.
  SimTime export_period = seconds(2.0);
  /// Top-k pairs per summary; 0 = export everything (sampling off).
  std::size_t summary_max_pairs = 64;
};

}  // namespace vw::wren
