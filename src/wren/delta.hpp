#pragma once

#include <map>
#include <utility>

#include "net/packet.hpp"

// The view-delta protocol (DESIGN.md §5j): a compact diff of a
// GlobalNetworkView between two drain points, consumed by the warm-start
// optimizer so re-adaptation work scales with what *changed*, not with the
// size of the view.
//
// A delta is an accumulator, not a log: repeated updates to the same
// directed pair collapse into the final value, and an invalidation
// supersedes any earlier value changes for that pair (the consumer applies
// `invalidated` first — reverting the pair to its fallback capacity — and
// the changed values after, so a drop-then-remeasure sequence lands on the
// remeasured value). Pairs are keyed in an ordered map so consumers iterate
// deterministically.
//
// Header-only on purpose: vadapt consumes deltas without linking vw_wren.

namespace vw::wren {

/// The collapsed state of one changed directed pair.
struct PairDelta {
  bool bandwidth_changed = false;
  double bandwidth_bps = 0;
  bool latency_changed = false;
  double latency_s = 0;
  /// The entry was dropped (migration failure, daemon death, staleness
  /// expiry) at some point since the last drain.
  bool invalidated = false;

  bool operator==(const PairDelta&) const = default;
};

/// Diff of a GlobalNetworkView since the last drain.
class ViewDelta {
 public:
  using PairKey = std::pair<net::NodeId, net::NodeId>;

  /// Record a bandwidth change for (from, to); later values overwrite.
  void note_bandwidth(net::NodeId from, net::NodeId to, double bps) {
    PairDelta& d = pairs_[{from, to}];
    d.bandwidth_changed = true;
    d.bandwidth_bps = bps;
  }

  /// Record a latency change for (from, to); later values overwrite.
  void note_latency(net::NodeId from, net::NodeId to, double seconds) {
    PairDelta& d = pairs_[{from, to}];
    d.latency_changed = true;
    d.latency_s = seconds;
  }

  /// Record that the (from, to) entry was dropped. Supersedes earlier value
  /// changes for the pair (they described an entry that no longer exists).
  void note_invalidated(net::NodeId from, net::NodeId to) {
    PairDelta& d = pairs_[{from, to}];
    d = PairDelta{};
    d.invalidated = true;
  }

  bool empty() const { return pairs_.empty(); }

  /// Number of distinct directed pairs this delta touches (the
  /// `vadapt.warm.delta_pairs` histogram sample).
  std::size_t pair_count() const { return pairs_.size(); }

  const std::map<PairKey, PairDelta>& pairs() const { return pairs_; }

  void clear() { pairs_.clear(); }

 private:
  std::map<PairKey, PairDelta> pairs_;
};

}  // namespace vw::wren
