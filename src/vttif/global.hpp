#pragma once

#include <deque>
#include <functional>
#include <optional>

#include "net/packet.hpp"
#include "obs/scope.hpp"
#include "sim/simulator.hpp"
#include "vttif/matrix.hpp"

// The Proxy-side half of VTTIF: aggregates the per-daemon local matrices
// into a global traffic matrix, applies a sliding-window low-pass filter,
// recovers the application topology by normalization + pruning, and drives
// adaptation through a damped change-detection callback — "smoothed so that
// adaptation decisions made on its output cannot lead to oscillation".

namespace vw::vttif {

/// Relative rate change that makes a same-shape topology "interesting".
inline constexpr double kChangeThreshold = 0.5;
inline constexpr SimTime kAggregationPeriod = seconds(1.0);  ///< window slot width
inline constexpr std::size_t kWindowSlots = 10;              ///< sliding window length
inline constexpr SimTime kReactionCooldown = seconds(5.0);   ///< min spacing of change callbacks

class GlobalVttif {
 public:
  using ChangeFn = std::function<void(const Topology&)>;

  explicit GlobalVttif(sim::Simulator& sim);

  GlobalVttif(const GlobalVttif&) = delete;
  GlobalVttif& operator=(const GlobalVttif&) = delete;

  /// Entry point for LocalVttif pushes (bytes accumulated at one daemon).
  void update_from(net::NodeId reporter, const TrafficMatrix& bytes);

  /// Low-pass-filtered global rate matrix (bytes/sec over the window).
  TrafficMatrix smoothed_rate_matrix() const;

  /// Application topology recovered from the smoothed matrix.
  Topology current_topology() const;

  /// Fires (rate-limited) when the inferred topology changes interestingly.
  void set_on_change(ChangeFn fn) { on_change_ = std::move(fn); }

  std::uint64_t updates_received() const { return updates_; }
  std::uint64_t changes_reported() const { return changes_; }

  /// Attach telemetry (vttif.updates/changes counters, topology-edge gauge,
  /// an instant trace event per reported change).
  void set_obs(const obs::Scope& scope);

 private:
  void close_slot();

  sim::Simulator& sim_;
  TrafficMatrix current_slot_;
  std::deque<TrafficMatrix> window_;
  std::optional<Topology> last_reported_;
  ChangeFn on_change_;
  SimTime last_report_time_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t changes_ = 0;
  obs::Scope obs_;
  obs::Counter* c_updates_ = nullptr;
  obs::Counter* c_changes_ = nullptr;
  obs::Gauge* g_edges_ = nullptr;
  sim::PeriodicTask task_;
};

}  // namespace vw::vttif
