#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "wren/sic.hpp"
#include "wren/trace.hpp"
#include "wren/trace_binary.hpp"

// Offline Wren — the mode the original system shipped with before this
// paper's online extension: "the packet traces can be filtered for useful
// observations and transmitted to a remote repository for analysis".
//
// Filtered records travel in the one trace format, vw.trace.v1
// (wren/trace_binary.hpp). analyze_offline replays a record vector through
// the online analyzer's collection step (wren::FlowAnalyzer) at its
// cadence, reproducing that analyzer's observation series. merge_traces /
// apply_filter / match_traces are the corpus operations behind the
// vwcap-extract and vwcap-match tools.

namespace vw::wren {

/// Keep only the records Wren's analysis consumes (is_useful): outgoing
/// data packets and incoming pure ACKs.
std::vector<PacketRecord> filter_useful(const std::vector<PacketRecord>& records);

/// Merge per-host capture shards into one time-ordered trace. Ties are
/// broken by shard order then record order within the shard, so the merge
/// is deterministic for a given shard list.
std::vector<PacketRecord> merge_traces(const std::vector<std::vector<PacketRecord>>& shards);

/// Record predicate used by vwcap-extract: unset fields match everything.
struct TraceFilter {
  std::optional<net::NodeId> src;
  std::optional<net::NodeId> dst;
  std::optional<std::uint16_t> src_port;
  std::optional<std::uint16_t> dst_port;
  SimTime from = std::numeric_limits<SimTime>::min();  ///< inclusive
  SimTime to = std::numeric_limits<SimTime>::max();    ///< inclusive
  bool useful_only = false;  ///< apply is_useful too

  bool matches(const PacketRecord& r) const;
};

std::vector<PacketRecord> apply_filter(const std::vector<PacketRecord>& records,
                                       const TraceFilter& filter);

// --- two-point frame matching (vwcap-match) ---------------------------------

/// One frame seen at both capture points.
struct MatchedFrame {
  net::FlowKey flow;
  std::uint64_t seq = 0;
  std::uint32_t payload_bytes = 0;
  SimTime sent_at = 0;     ///< timestamp at the `from` capture point
  SimTime arrived_at = 0;  ///< timestamp at the `to` capture point
  SimTime latency() const { return arrived_at - sent_at; }
};

struct MatchResult {
  std::vector<MatchedFrame> matched;  ///< ordered by sent_at
  std::size_t unmatched_from = 0;     ///< frames seen only at `from` (loss)
  std::size_t unmatched_to = 0;       ///< frames seen only at `to`

  /// Latency order statistic over matched frames, q in [0, 1]; 0 when empty.
  SimTime latency_quantile(double q) const;
  SimTime min_latency() const;
  SimTime max_latency() const;
  double mean_latency_ns() const;
};

/// Match data frames recorded at two capture points to compute per-hop
/// latency/loss: a frame's identity is (flow, seq, payload_bytes), and
/// duplicates (retransmissions) pair up in FIFO order. Only outgoing data
/// frames at `from` and incoming data frames at `to` participate — the
/// NIC-departure → NIC-delivery interval is exactly the path latency.
MatchResult match_traces(const std::vector<PacketRecord>& from,
                         const std::vector<PacketRecord>& to);

struct OfflineResult {
  /// Per-flow observation series, flattened and time-ordered.
  std::vector<std::pair<net::FlowKey, SicObservation>> observations;
  /// Final per-flow estimates.
  std::vector<std::pair<net::FlowKey, double>> estimates_bps;
  std::size_t flows_analyzed = 0;
};

/// Replay a trace through the online collection step at its cadence, with
/// the default train and SIC settings; estimates_bps holds each flow's final
/// estimate_bps().
OfflineResult analyze_offline(const std::vector<PacketRecord>& records);

}  // namespace vw::wren
