#pragma once

#include <cstddef>
#include <utility>
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
// cadence, reproducing that analyzer's observation series.

namespace vw::wren {

/// Keep only the records Wren's analysis consumes (is_useful): outgoing
/// data packets and incoming pure ACKs.
std::vector<PacketRecord> filter_useful(const std::vector<PacketRecord>& records);

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
