#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "obs/scope.hpp"
#include "util/time.hpp"
#include "wren/delta.hpp"

// The "bird's eye view of the physical network": pairwise available
// bandwidth and latency among the hosts running VNET daemons. Maintained at
// the Proxy from the per-host Wren reports that VNET daemons forward, and
// consumed by VADAPT as the capacity function of its optimization problem.
//
// Staleness: measurements age. With a staleness horizon configured (and a
// clock attached), entries older than the horizon stop being served —
// VADAPT falls back to the configured default capacity instead of
// optimizing on a dead link's last good reading. Entries can also be
// invalidated eagerly (e.g. when a migration across a pair fails or a
// daemon is declared dead).

namespace vw::wren {

struct PathMeasurement {
  double bandwidth_bps = 0;
  double latency_s = 0;
  SimTime updated_at = 0;
  bool has_bandwidth = false;
  bool has_latency = false;

  bool operator==(const PathMeasurement&) const = default;
};

class GlobalNetworkView {
 public:
  /// Merge a bandwidth report for the directed pair (from, to). Reports
  /// arrive off the network, so a poisoned value (NaN, Inf, negative —
  /// which would corrupt every VADAPT widest-path compare downstream) is
  /// rejected and counted rather than trusted: returns false and leaves the
  /// view untouched. The timestamp, by contrast, is caller-provided state
  /// and is VW_REQUIREd sane.
  bool update_bandwidth(net::NodeId from, net::NodeId to, double bps, SimTime at);
  /// Merge a latency report for the directed pair (from, to); same
  /// validation contract as update_bandwidth.
  bool update_latency(net::NodeId from, net::NodeId to, double seconds, SimTime at);

  /// The validation predicate both updates apply: finite and non-negative.
  static bool valid_measurement(double v);

  /// Reports rejected by the validation path since construction.
  std::uint64_t rejected_reports() const { return rejected_reports_; }

  std::optional<double> bandwidth_bps(net::NodeId from, net::NodeId to) const;
  std::optional<double> latency_seconds(net::NodeId from, net::NodeId to) const;

  const std::map<std::pair<net::NodeId, net::NodeId>, PathMeasurement>& entries() const {
    return entries_;
  }

  // --- staleness --------------------------------------------------------------
  /// Entries older than `horizon` are treated as unmeasured (0 disables).
  /// Takes effect only once a clock is attached.
  void set_staleness_horizon(SimTime horizon) { staleness_horizon_ = horizon; }
  SimTime staleness_horizon() const { return staleness_horizon_; }

  /// Attach the virtual clock used to age entries (typically the
  /// simulator's). Without a clock, staleness is never applied.
  void set_clock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  /// Whether a measurement is within the staleness horizon right now.
  bool is_fresh(const PathMeasurement& m) const;

  /// Drop the entry for a directed pair (e.g. the path just failed).
  void invalidate(net::NodeId from, net::NodeId to);

  /// Drop every entry touching `host` (e.g. its daemon died). Returns the
  /// number of entries removed.
  std::size_t invalidate_host(net::NodeId host);

  /// Physically remove entries older than the horizon; returns how many
  /// were dropped. Queries already exclude them — this just bounds memory.
  ///
  /// NOTE: this mutates entries_, so any snapshot a caller took earlier
  /// (a copy of entries(), a CapacityGraph built from it) no longer
  /// reflects the view. Planners must re-snapshot after a sweep — VirtuosoSystem::adapt_now() refreshes liveness + expiry before
  /// building its capacity graph for exactly this reason.
  std::size_t expire_stale();

  /// Attach telemetry (wren.view.rejected_reports counter).
  void set_obs(const obs::Scope& scope);

  // --- delta tracking ---------------------------------------------------------
  /// Start accumulating a ViewDelta describing every subsequent change to
  /// the view (value-changing updates, invalidations, host drops, staleness
  /// expiries). Off by default — tracking costs a map insert per change.
  void enable_delta_tracking() { track_delta_ = true; }

  /// Take the accumulated delta since the last drain (empty if tracking is
  /// disabled) and reset the accumulator.
  ViewDelta drain_delta() {
    ViewDelta out = std::move(delta_);
    delta_.clear();
    return out;
  }

 private:
  std::map<std::pair<net::NodeId, net::NodeId>, PathMeasurement> entries_;
  SimTime staleness_horizon_ = 0;
  std::function<SimTime()> clock_;
  std::uint64_t rejected_reports_ = 0;
  obs::Counter* c_rejected_ = nullptr;
  bool track_delta_ = false;
  ViewDelta delta_;
};

}  // namespace vw::wren
