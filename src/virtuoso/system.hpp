#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "transport/stack.hpp"
#include "vadapt/annealing.hpp"
#include "vadapt/greedy.hpp"
#include "vadapt/multistart.hpp"
#include "vadapt/problem.hpp"
#include "vadapt/warm_start.hpp"
#include "vm/machine.hpp"
#include "vm/migration.hpp"
#include "vnet/control.hpp"
#include "vnet/overlay.hpp"
#include "vttif/global.hpp"
#include "vttif/local.hpp"
#include "wren/analyzer.hpp"
#include "wren/federation.hpp"
#include "wren/view.hpp"

// The integrated Virtuoso runtime (paper Figure 5): VNET daemons carry VM
// traffic over the physical network; Wren passively measures that traffic on
// every daemon host; VTTIF infers the VM application topology and
// aggregates both views at the Proxy; VADAPT turns the two matrices into a
// new configuration (VM mapping + overlay paths) that the system applies
// through migrations and forwarding-rule updates.
//
// Reporting is real: VTTIF matrix pushes and Wren measurement reports are
// serialized to XML and shipped to the Proxy over TCP control connections
// crossing the simulated network (vnet::ControlPlane); only adaptation
// *commands* (migrate / install rules) are issued in-process at the Proxy.
// The runtime serves no SOAP endpoint, since nothing outside the process
// consumes one; Wren's SOAP interface is a library (wren/service.hpp).

namespace vw::virtuoso {

enum class AdaptationAlgorithm {
  kGreedy,              ///< GH
  /// K SA chains, chain 0 seeded with GH (+B best-so-far is always
  /// tracked); multistart.chains = 1 is SA+GH.
  kMultiStartAnnealing,
};

inline constexpr SimTime kWrenReportPeriod = seconds(1.0);  ///< daemon Wren report period

/// What a deployment chooses. Every daemon's analyzer runs Wren's default
/// train and SIC settings, and its cadences are fixed: Wren's collection
/// period and freshness window (wren::kCollectPeriod, wren::kFreshness),
/// the report and local VTTIF push periods (kWrenReportPeriod,
/// vttif::kLocalPeriod), the Proxy's VTTIF window and damping
/// (vttif::kAggregationPeriod, kWindowSlots, kReactionCooldown), the
/// migration path poll (vm::kPathCheckPeriod) and the control plane's
/// health-check poll, connect timeout, resend window and backoff ceiling
/// and growth (vnet::kHealthCheckPeriod, kConnectTimeout, kResendWindow,
/// kBackoffMax, kBackoffFactor).
struct SystemConfig {
  vadapt::Objective objective;
  vadapt::AnnealingParams annealing;
  /// kMultiStartAnnealing settings: `chains` and `threads` are read (and
  /// `pool`, when set); its `annealing` and `seed` are overwritten at
  /// adaptation time with `annealing` above and a seed derived from `seed`.
  vadapt::MultiStartParams multistart;
  /// Continuous warm-start adaptation (DESIGN.md §5j). When enabled, the
  /// view tracks deltas and adapt_now() patches + burst-anneals the live
  /// incumbent instead of re-solving from scratch, falling back to the cold
  /// algorithm when the incumbent is missing/stale, the problem is small
  /// (fewer than vadapt::kWarmMinVms VMs), or the delta touches more than a
  /// quarter of the host-pair space. An invalidated pair falls back to the
  /// adopted graph's defaults (default_bandwidth_bps and 1 ms).
  /// Open (DESIGN.md §5j): unlike capacity_graph(), the warm patch does
  /// not consult the federation's region aggregates.
  vadapt::WarmStartParams warm_start;
  /// Control-plane delivery robustness (stall timeout, first reconnect
  /// delay).
  vnet::ControlPlaneParams control;
  /// Wren-view entries older than this are invisible to queries and to
  /// capacity_graph(); 0 = entries never go stale (pre-failure behavior).
  SimTime view_staleness_horizon = 0;
  /// Per-daemon control-plane heartbeat period — a liveness signal even when
  /// a host has no traffic or measurements to report; 0 disables heartbeats.
  SimTime control_heartbeat_period = 0;
  /// A daemon that has not reported anything (heartbeat, VTTIF update or
  /// Wren report) for this long is declared dead: it drops out of
  /// capacity_graph() and its view measurements are invalidated. 0 disables
  /// daemon-failure detection.
  SimTime daemon_timeout = 0;
  std::uint64_t seed = 42;
  /// Capacity assumed for daemon pairs Wren has not yet measured.
  double default_bandwidth_bps = 0;
  /// When true the system owns a MetricsRegistry + EventTracer stamped by
  /// the virtual clock and wires them into every subsystem (wren,
  /// transport, vnet, vttif, vadapt, vm, virtuoso); read them in-process
  /// through metrics() / tracer(). The tracer is also the system's event
  /// record: daemon deaths, resurrections and kills and each adaptation's
  /// cost land there as virtuoso.* events.
  bool telemetry = true;
  /// When non-empty, the constructor creates this directory and every
  /// daemon's trace facility (the same tap its Wren analyzer drains) also
  /// streams its packet-header records to a vw.trace.v1 shard in it:
  /// trace_host<id>.vwtrace, shard tag = add order. Shards finalize on
  /// finish_capture() or destruction; read_trace_binary_file +
  /// analyze_offline replay them.
  std::string capture_dir;
  /// The federated measurement plane (DESIGN.md §5i). When enabled,
  /// bootstrap() splits the daemons into regions, stands up a RegionalProxy
  /// tier (daemon Wren reports + heartbeats are redirected to the region's
  /// control plane), and feeds the root view from summarized exports
  /// instead of raw per-daemon reports.
  wren::FederationConfig federation;
};

struct AdaptationOutcome {
  vadapt::Configuration configuration;
  vadapt::Evaluation evaluation;
  std::size_t migrations = 0;
  std::vector<vadapt::Demand> demands;
  std::vector<net::NodeId> hosts;  ///< host order used by the configuration
};

class VirtuosoSystem {
 public:
  VirtuosoSystem(sim::Simulator& sim, net::Network& network, SystemConfig config = {});

  VirtuosoSystem(const VirtuosoSystem&) = delete;
  VirtuosoSystem& operator=(const VirtuosoSystem&) = delete;

  // --- deployment -----------------------------------------------------------
  /// Install a VNET daemon (plus Wren analyzer and local VTTIF) on a host.
  vnet::VnetDaemon& add_daemon(net::NodeId host, std::string name, bool is_proxy = false);

  /// Build the star overlay and start VTTIF/Wren reporting. Call after all
  /// daemons are added.
  void bootstrap(vnet::LinkProtocol proto = vnet::LinkProtocol::kTcp);

  /// Create a VM and attach it to the daemon on `host`.
  vm::VirtualMachine& create_vm(const std::string& name, net::NodeId host,
                                std::uint64_t memory_bytes = 256ull << 20);

  // --- failure handling -------------------------------------------------------
  /// Crash the daemon process on `host`: all of its reporting (VTTIF, Wren,
  /// heartbeats) stops. With daemon_timeout configured, the Proxy declares
  /// the host dead once the reports go missing. The host's network stack
  /// keeps forwarding (the daemon died, not the machine).
  void kill_daemon(net::NodeId host);

  /// The Proxy's belief: false once `host` has missed reports for longer
  /// than daemon_timeout (and has not reported since).
  bool daemon_alive(net::NodeId host) const { return !dead_daemons_.contains(host); }

  /// Daemon hosts currently believed alive (the capacity_graph() host set).
  std::vector<net::NodeId> live_daemon_hosts() const;

  /// Re-plans triggered by a failed migration (auto-adaptation only).
  std::uint64_t failure_replans() const { return failure_replans_; }
  std::uint64_t daemons_declared_dead() const { return daemons_declared_dead_; }

  // --- component access -------------------------------------------------------
  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return network_; }
  transport::TransportStack& stack() { return stack_; }
  vnet::Overlay& overlay() { return overlay_; }
  wren::GlobalNetworkView& network_view() { return view_; }
  vttif::GlobalVttif& global_vttif() { return *global_vttif_; }
  wren::OnlineAnalyzer& wren_on(net::NodeId host);
  vm::MigrationEngine& migration() { return migration_; }
  /// The control plane (valid after bootstrap()).
  vnet::ControlPlane& control_plane() { return *control_; }
  const std::vector<std::unique_ptr<vm::VirtualMachine>>& vms() const { return vms_; }

  // --- telemetry ---------------------------------------------------------------
  /// The system-wide observability scope; disabled (null pointers) when
  /// SystemConfig::telemetry is false.
  obs::Scope scope() { return obs::Scope{metrics_.get(), tracer_.get()}; }
  /// Metrics registry / event tracer; null when telemetry is disabled.
  obs::MetricsRegistry* metrics() { return metrics_.get(); }
  obs::EventTracer* tracer() { return tracer_.get(); }

  // --- packet-trace capture ----------------------------------------------------
  /// Finalize every daemon's capture shard (SystemConfig::capture_dir) and
  /// return the records they hold in total; 0 without capture. Idempotent.
  /// Throws std::runtime_error naming the shard when a write failed; the
  /// implicit finish at destruction never throws.
  std::uint64_t finish_capture();

  // --- federation ---------------------------------------------------------------
  /// Whether the federated measurement plane is live (bootstrap() ran with
  /// SystemConfig::federation.enabled).
  bool federation_enabled() const { return federation_ != nullptr; }
  /// Host -> region assignment; null when federation is off.
  const wren::RegionMap* region_map() const;
  /// The root-tier summary sink; null when federation is off.
  wren::FederationRoot* federation_root();
  /// The regional proxy serving `region`; null when absent / federation off.
  wren::RegionalProxy* regional_proxy(wren::RegionId region);
  /// The control plane daemons of `region` report into; null when absent.
  vnet::ControlPlane* regional_control(wren::RegionId region);

  /// Run the liveness sweep and drop expired view entries NOW, so the next
  /// capacity_graph() snapshot cannot be built over adjacency that predates
  /// invalidate_host()/expire_stale(). adapt_now() calls this first — the
  /// snapshot-ordering contract tests/chaos_test.cpp pins.
  void refresh_view_before_planning();

  // --- adaptation inputs -------------------------------------------------------
  /// The capacity graph VADAPT sees: daemon hosts, bandwidth/latency from
  /// the Proxy's Wren view (unmeasured pairs fall back to the federation's
  /// region-to-region aggregates, then to default_bandwidth_bps).
  vadapt::CapacityGraph capacity_graph() const;

  /// Demands from the current VTTIF topology (VM indices, bits/sec).
  std::vector<vadapt::Demand> current_demands() const;

  // --- adaptation -------------------------------------------------------------
  /// Compute a new configuration with the chosen algorithm and apply it:
  /// migrate VMs and install overlay links + forwarding rules.
  AdaptationOutcome adapt_now(AdaptationAlgorithm algorithm);

  /// Close the loop: let VTTIF's damped change detection drive adaptation
  /// automatically ("VTTIF automatically reacts to interesting changes in
  /// traffic patterns and reports them, driving adaptation"). At most one
  /// adaptation per `cooldown`.
  void enable_auto_adaptation(AdaptationAlgorithm algorithm,
                              SimTime cooldown = seconds(30.0));
  void disable_auto_adaptation();
  std::uint64_t auto_adaptations() const { return auto_adaptations_; }

  /// Adaptations served warm (delta patch + burst) vs cold (from-scratch
  /// solve) since construction. Cold counts only when warm-start is enabled
  /// — with the knob off every adaptation is cold by definition and neither
  /// counter moves.
  std::uint64_t warm_starts() const { return warm_starts_; }
  std::uint64_t cold_starts() const { return cold_starts_; }

  /// Apply an externally computed configuration.
  std::size_t apply_configuration(const vadapt::CapacityGraph& graph,
                                  const std::vector<vadapt::Demand>& demands,
                                  const vadapt::Configuration& conf);

 private:
  struct DaemonRuntime {
    std::unique_ptr<wren::OnlineAnalyzer> analyzer;
    std::unique_ptr<vttif::LocalVttif> local_vttif;
    std::unique_ptr<sim::PeriodicTask> reporter;
    std::unique_ptr<sim::PeriodicTask> heartbeat;
  };

  /// One region of the federated plane: its proxy host, the control plane
  /// its daemons report into, the partial view, and the export task.
  struct FederationRegion {
    net::NodeId proxy_host = net::kInvalidNode;
    std::unique_ptr<vnet::ControlPlane> control;
    std::unique_ptr<wren::RegionalProxy> proxy;
    std::unique_ptr<sim::PeriodicTask> exporter;
    /// The root saw this region's summaries go missing: the next export
    /// bypasses sampling so entries only the lost ones carried come back.
    bool full_export_due = false;
  };

  struct FederationRuntime {
    wren::RegionMap region_map;
    std::unique_ptr<wren::FederationRoot> root;
    std::vector<FederationRegion> regions;  ///< region r at index r
  };

  /// The region with id `region`; null when out of range or federation off.
  FederationRegion* region_at(wren::RegionId region);

  void start_reporting(net::NodeId host);
  std::optional<vadapt::VmIndex> vm_index_for_mac(vnet::MacAddress mac) const;
  void note_report(net::NodeId reporter);
  void note_report_at(net::NodeId reporter, SimTime at);
  void liveness_tick();
  void on_migration_failed(net::NodeId source, net::NodeId target);
  void try_failure_replan();
  void bootstrap_federation();
  /// The control plane `host`'s Wren reports and heartbeats ride: its
  /// region's plane when federated, the root plane otherwise.
  vnet::ControlPlane& report_plane(net::NodeId host);
  wren::RegionalProxy* regional_proxy_for(net::NodeId host);
  /// Ship `host`'s periodic Wren report. Each is a full snapshot of the
  /// analyzer's peers, so it supersedes any earlier one the control plane
  /// lost; no make-up report is ever needed.
  void send_wren_report(net::NodeId host);
  /// Ship `region`'s periodic summary to the root, unsampled once when
  /// the root saw a sequence gap (full_export_due).
  void export_summary(wren::RegionId region);
  /// Demand push-down: weight the pairs the planner is about to optimize
  /// over so regional top-k sampling keeps them.
  void prepare_federation_for_plan(const std::vector<vadapt::Demand>& demands);

  sim::Simulator& sim_;
  net::Network& network_;
  SystemConfig config_;
  RngService rng_service_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;  ///< before stack_: wired into it
  std::unique_ptr<obs::EventTracer> tracer_;
  transport::TransportStack stack_;
  vnet::Overlay overlay_;
  std::unique_ptr<vnet::ControlPlane> control_;
  wren::GlobalNetworkView view_;
  std::unique_ptr<vttif::GlobalVttif> global_vttif_;
  vm::MigrationEngine migration_;
  std::map<net::NodeId, DaemonRuntime> runtimes_;
  std::vector<std::unique_ptr<vm::VirtualMachine>> vms_;
  vnet::MacAddress next_mac_ = 1;
  bool bootstrapped_ = false;
  bool auto_adapt_enabled_ = false;
  AdaptationAlgorithm auto_algorithm_ = AdaptationAlgorithm::kGreedy;
  SimTime auto_cooldown_ = 0;
  SimTime last_auto_adapt_ = 0;
  std::uint64_t auto_adaptations_ = 0;
  std::map<net::NodeId, SimTime> last_report_;  ///< Proxy-side liveness evidence
  std::set<net::NodeId> dead_daemons_;
  std::unique_ptr<sim::PeriodicTask> liveness_task_;
  bool replan_pending_ = false;
  std::uint64_t failure_replans_ = 0;
  std::uint64_t daemons_declared_dead_ = 0;
  std::unique_ptr<FederationRuntime> federation_;
  /// Created on the first multi-start adaptation that resolves to more
  /// than one thread, then reused: the control loop adapts repeatedly.
  std::unique_ptr<ThreadPool> annealing_pool_;
  /// Live across adaptations when warm_start.enabled; holds the incumbent
  /// configuration + evaluator residual state between adapt_now() calls.
  std::unique_ptr<vadapt::WarmStartOptimizer> warm_;
  std::uint64_t warm_starts_ = 0;
  std::uint64_t cold_starts_ = 0;
  std::uint64_t warm_epoch_ = 0;  ///< names the per-adapt burst RNG stream
  obs::Counter* c_adaptations_ = nullptr;
  obs::Counter* c_migrations_issued_ = nullptr;
  obs::Counter* c_wren_reports_ = nullptr;
  obs::Counter* c_migration_failures_ = nullptr;
  obs::Counter* c_replans_ = nullptr;
  obs::Counter* c_daemons_dead_ = nullptr;
  obs::Counter* c_warm_starts_ = nullptr;
  obs::Counter* c_cold_starts_ = nullptr;
  obs::Histogram* h_warm_delta_pairs_ = nullptr;
};

}  // namespace vw::virtuoso
