#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/probe.hpp"
#include "sim/simulator.hpp"
#include "vadapt/problem.hpp"
#include "virtuoso/system.hpp"
#include "wren/trace.hpp"

// Shared machinery of the integrated-loop benchmark: wall-clock spans the
// benchmark records around its own calls into each layer, ground-truth
// probes, the shadow planner, the per-class replays, and the record one
// scenario iteration produces. Wall-clock readings here are write-only
// telemetry of the benchmark; nothing the simulated program decides ever
// reads them.

namespace loopbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall-clock spans per layer, recorded from the benchmark's own files
/// around every call it makes into a layer. Disabled (untraced runs), a
/// span only runs its body.
class Ledger {
 public:
  explicit Ledger(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  template <class F>
  decltype(auto) span(const char* layer, F&& body) {
    if (!enabled_) return body();
    struct Close {
      Ledger& ledger;
      const char* layer;
      Clock::time_point t0;
      ~Close() { ledger.add(layer, seconds_since(t0)); }
    } close{*this, layer, Clock::now()};
    return body();
  }

  void add(std::string_view layer, double s) {
    auto it = seconds_.find(layer);
    if (it == seconds_.end()) it = seconds_.emplace(std::string(layer), 0.0).first;
    it->second += s;
    auto c = calls_.find(layer);
    if (c == calls_.end()) c = calls_.emplace(std::string(layer), 0).first;
    ++c->second;
  }

  double seconds(std::string_view layer) const {
    auto it = seconds_.find(layer);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  std::uint64_t calls(std::string_view layer) const {
    auto it = calls_.find(layer);
    return it == calls_.end() ? 0 : it->second;
  }
  /// Seconds per recorded span of `layer`; 0 when it has none.
  double mean_seconds(std::string_view layer) const {
    const std::uint64_t n = calls(layer);
    return n == 0 ? 0.0 : seconds(layer) / static_cast<double>(n);
  }

 private:
  bool enabled_;
  std::map<std::string, double, std::less<>> seconds_;
  std::map<std::string, std::uint64_t, std::less<>> calls_;
};

/// One output check: its name and whether it held.
struct Check {
  std::string name;
  bool ok = false;
};

/// Everything one scenario iteration yields. `sim` holds the simulated
/// statistics, which are a pure function of the iteration's seed; the
/// determinism self-test compares them across runs and trace modes.
struct Iteration {
  double setup_s = 0;
  double topology_s = 0;
  double bootstrap_s = 0;
  double vms_s = 0;
  double loop_wall_s = 0;    ///< host seconds inside Simulator::run_until
  double loop_scaled_s = 0;  ///< the same, each slice scaled by machine_speed()
  double slice_speed = 0;    ///< machine_speed() after the latest slice
  double sim_s = 0;          ///< simulated seconds those calls advanced
  std::vector<double> adapt_ms;
  std::vector<double> adapt_speed;  ///< machine_speed() just before each sample
  std::size_t max_threads = 1;      ///< most live threads seen after a sample
  double goodput_mbps = 0;
  double plan_cost_mbps = 0;
  double wren_err_pct = 0;
  std::map<std::string, double> sim;    ///< deterministic simulated statistics
  std::map<std::string, double> layer;  ///< per-layer values (traced runs)
  std::vector<Check> checks;
  std::string signature;
};

/// A scenario: builds, runs and scores one instance for `seed`. With the
/// ledger enabled it also records spans and per-layer replays.
using ScenarioFn = Iteration (*)(std::uint64_t seed, Ledger& ledger);

Iteration run_bsp_wren(std::uint64_t seed, Ledger& ledger);
Iteration run_chaos_adapt(std::uint64_t seed, Ledger& ledger);
Iteration run_brite_fleet(std::uint64_t seed, Ledger& ledger);

// --- shared helpers -----------------------------------------------------------

/// The machine's current speed relative to a reference state: a fixed,
/// benchmark-owned calibration kernel in the simulator's style (a binary heap
/// of timestamped events plus hashed table updates) is run `rounds` times and
/// its nominal time divided by the host time it took. Shared machines change
/// speed for seconds at a time (a busy SMT sibling, turbo limits) by up to
/// 1.5x; host times multiplied by the speed measured beside them read as
/// times on the reference state. The kernel works in static arrays and never
/// allocates, so it shares only the CPU with the program, not its heap.
double machine_speed(int rounds);

/// Calibration rounds timed just before every adaptation sample.
inline constexpr int kSampleRounds = 3;

/// Threads the process has right now (Threads: in /proc/self/status), or 0
/// where procfs does not say.
std::size_t live_threads();

/// Records one adaptation sample: its host ms and the machine speed measured
/// just before it (the measurement is spanned as "calibrate"), plus the
/// process's thread count while the planner's pools exist.
template <class Plan>
void time_adaptation(Iteration& it, Ledger& ledger, Plan&& plan) {
  const double speed = ledger.span("calibrate", [] { return machine_speed(kSampleRounds); });
  if (const std::optional<double> ms = plan()) {
    it.adapt_ms.push_back(*ms);
    it.adapt_speed.push_back(speed);
  }
  it.max_threads = std::max(it.max_threads, live_threads());
}

/// Hardware threads this process may run on (its CPU affinity mask).
std::size_t usable_cpus();

/// The multi-start pool size of the system's planner. One worker: the chains
/// run back to back, so adaptation latency measures planner work rather
/// than thread wake-ups on a shared machine; multi-start results do not
/// depend on the thread count. main() checks that the live thread count
/// never exceeds usable_cpus().
inline constexpr std::size_t kPlannerThreads = 1;

/// Advance the simulator to `until`, adding the host time to the iteration's
/// loop wall and the virtual time to its simulated seconds. One calibration
/// round before the first slice and after every slice scales each slice by
/// the mean machine speed on either side of it.
void run_timed(vw::sim::Simulator& sim, vw::SimTime until, Iteration& it, Ledger& ledger);

/// Ground truth for watched routed paths: one net::LinkProbe per channel,
/// shared by every path that crosses it. available_bps(a, b) is the
/// bandwidth available to a's traffic over the last probe period: the path
/// residual (minimum over its channels) plus a's own sending rate (its
/// access hop's utilization, since Wren's estimate includes the monitored
/// traffic's own consumption), capped at the bottleneck; nullopt while a
/// hop is down or before the first sample.
class GroundTruth {
 public:
  GroundTruth(vw::net::Network& network, vw::SimTime period)
      : network_(network), period_(period) {}
  /// Start probing a -> b; call before the run so samples exist.
  void watch(vw::net::NodeId a, vw::net::NodeId b);
  std::optional<double> available_bps(vw::net::NodeId a, vw::net::NodeId b) const;
  /// Bottleneck capacity of the watched path right now.
  double capacity_bps(vw::net::NodeId a, vw::net::NodeId b) const;

 private:
  using Key = std::pair<vw::net::NodeId, vw::net::NodeId>;
  vw::net::Network& network_;
  vw::SimTime period_;
  std::map<Key, std::unique_ptr<vw::net::LinkProbe>> probes_;  ///< by channel
  std::map<Key, std::vector<const vw::net::LinkProbe*>> paths_;
};

/// wren_err_pct accumulator: mean absolute error of an estimate against
/// ground truth, as a share of the path's bottleneck capacity (a share of
/// the truth itself explodes on a saturated path, where the truth nears 0).
struct ErrorMean {
  double sum = 0;
  std::size_t n = 0;
  void add(double estimate, double truth, double capacity) {
    if (capacity <= 0) return;
    sum += (estimate > truth ? estimate - truth : truth - estimate) / capacity;
    ++n;
  }
  double pct() const { return n == 0 ? 0.0 : 100.0 * sum / static_cast<double>(n); }
};

/// Ground-truth capacity graph over `hosts`: routed-path bottleneck capacity
/// and propagation delay of the live physical network.
vw::vadapt::CapacityGraph truth_graph(const vw::net::Network& network,
                                      const std::vector<vw::net::NodeId>& hosts);

/// Eq. 1 objective (Mb/s) of the VMs' current placement under ground truth,
/// with every demand on its direct overlay link between the two hosts.
double placement_cost_mbps(const vw::net::Network& network,
                           const std::vector<vw::net::NodeId>& daemon_hosts,
                           const std::vector<vw::vm::VirtualMachine*>& vms,
                           const std::vector<vw::vadapt::Demand>& demands);

/// Application payload the VMs received, in bytes.
double vm_payload_bytes(const std::vector<vw::vm::VirtualMachine*>& vms);

/// Application payload delivered over host bytes put on the wire.
double goodput_ratio(vw::net::Network& network, const std::vector<vw::net::NodeId>& hosts,
                     const std::vector<vw::vm::VirtualMachine*>& vms);

/// A VADAPT planning pass the benchmark drives over the live system, never
/// applied: capacity_graph() + current_demands() + `algorithm` with the
/// system's configured parameters, as adapt_now() runs it cold. kGreedy is
/// the greedy heuristic alone; kMultiStartAnnealing seeds multi-start
/// annealing with it, its chains run back to back on the calling thread.
/// plan() runs `passes` such passes back to back and returns host ms per
/// pass, or nullopt when fewer live hosts than VMs leave nothing to plan.
class ShadowPlanner {
 public:
  ShadowPlanner(const vw::virtuoso::SystemConfig& config,
                vw::virtuoso::AdaptationAlgorithm algorithm, int passes);
  std::optional<double> plan(vw::virtuoso::VirtuosoSystem& system, Ledger& ledger,
                             std::uint64_t epoch);

 private:
  vw::virtuoso::SystemConfig config_;
  vw::virtuoso::AdaptationAlgorithm algorithm_;
  int passes_;
};

/// Capacity graph + demand snapshot timings around a planning call (spans
/// on the view and VTTIF layers, traced runs only).
void time_planner_inputs(vw::virtuoso::VirtuosoSystem& system, Ledger& ledger, Iteration& it);

/// The per-layer values every workload reports from the system's own
/// telemetry registry and component counters.
void collect_layers(vw::virtuoso::VirtuosoSystem& system, const Ledger& ledger, Iteration& it);

/// Records captured by an extra benchmark-owned Wren trace tap (traced runs
/// only) and replayed after the loop through the net datapath and the
/// public train-extraction + SIC functions, split by packet class.
class RecordTap {
 public:
  RecordTap(vw::net::Network& network, vw::net::NodeId host, bool enabled);
  void drain();
  /// Replays and writes net.* / wren.replay_* values into `it.layer`.
  void replay(Ledger& ledger, Iteration& it);

 private:
  std::unique_ptr<vw::wren::TraceFacility> trace_;
  std::vector<vw::wren::PacketRecord> records_;
};

/// XML codec replay of a representative WrenReport (soap.report_codec_ns).
void replay_report_codec(const std::vector<vw::net::NodeId>& hosts, Ledger& ledger,
                         Iteration& it);

/// vw.fedsum.v1 + hex armor round trip of a summary built from the root
/// view's entries (wren.fedsum_codec_ns).
void replay_fedsum_codec(const vw::wren::GlobalNetworkView& view, Ledger& ledger, Iteration& it);

}  // namespace loopbench
