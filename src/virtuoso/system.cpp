#include "virtuoso/system.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "util/check.hpp"

namespace vw::virtuoso {

namespace {

constexpr std::uint16_t kRootPort = 9001;      ///< the root control plane
constexpr std::uint16_t kRegionalPort = 9002;  ///< each region's proxy host
constexpr std::size_t kTraceCapacity = 16384;  ///< EventTracer ring, in events

// --- control-plane report encodings -----------------------------------------

soap::XmlNode encode_vttif_update(net::NodeId reporter, const vttif::TrafficMatrix& matrix) {
  soap::XmlNode msg;
  msg.name = "VttifUpdate";
  msg.attributes["reporter"] = std::to_string(reporter);
  for (const auto& [key, bits] : matrix.entries()) {
    soap::XmlNode& e = msg.add_child("entry");
    e.attributes["src"] = std::to_string(key.first);
    e.attributes["dst"] = std::to_string(key.second);
    e.attributes["bits"] = soap::format_double(bits);
  }
  return msg;
}

/// Decodes a VttifUpdate's entries without touching state; `bits` must be
/// finite and >= 0, what TrafficMatrix::add accepts.
vttif::TrafficMatrix decode_vttif_entries(const soap::XmlNode& msg) {
  vttif::TrafficMatrix matrix;
  for (const soap::XmlNode& e : msg.children) {
    if (e.name != "entry") continue;
    const auto bits = soap::attr<double>(e, "bits");
    if (!std::isfinite(bits) || bits < 0) {
      throw std::runtime_error("VttifUpdate: bad traffic value " + e.attributes.at("bits"));
    }
    matrix.add(soap::attr<vnet::MacAddress>(e, "src"), soap::attr<vnet::MacAddress>(e, "dst"),
               bits);
  }
  return matrix;
}

soap::XmlNode encode_heartbeat(net::NodeId reporter) {
  soap::XmlNode msg;
  msg.name = "Heartbeat";
  msg.attributes["reporter"] = std::to_string(reporter);
  return msg;
}

soap::XmlNode encode_wren_report(net::NodeId reporter, const wren::OnlineAnalyzer& analyzer) {
  // Shared codec (wren/federation.hpp): the flat Proxy and the regional
  // tier parse the exact same document.
  std::vector<wren::PathReading> readings;
  for (net::NodeId peer : analyzer.peers()) {
    wren::PathReading r;
    r.peer = peer;
    r.bandwidth_bps = analyzer.available_bandwidth_bps(peer);
    r.latency_s = analyzer.latency_seconds(peer);
    if (r.bandwidth_bps || r.latency_s) readings.push_back(r);
  }
  return wren::encode_wren_report_xml(reporter, readings);
}

}  // namespace

VirtuosoSystem::VirtuosoSystem(sim::Simulator& sim, net::Network& network, SystemConfig config)
    : sim_(sim),
      network_(network),
      config_(config),
      rng_service_(config.seed),
      metrics_(config.telemetry
                   ? std::make_unique<obs::MetricsRegistry>([&sim] { return sim.now(); })
                   : nullptr),
      tracer_(config.telemetry
                  ? std::make_unique<obs::EventTracer>(kTraceCapacity,
                                                       [&sim] { return sim.now(); })
                  : nullptr),
      stack_(network),
      overlay_(stack_),
      global_vttif_(std::make_unique<vttif::GlobalVttif>(sim)),
      migration_(sim, network) {
  // Measurements age against the virtual clock; with a horizon configured,
  // entries stop answering queries once they outlive it.
  view_.set_clock([this] { return sim_.now(); });
  view_.set_staleness_horizon(config_.view_staleness_horizon);
  if (config_.warm_start.enabled) {
    // Deltas drive the warm path.
    view_.enable_delta_tracking();
    warm_ = std::make_unique<vadapt::WarmStartOptimizer>(config_.warm_start);
  }
  if (!config_.capture_dir.empty()) std::filesystem::create_directories(config_.capture_dir);
  // With telemetry off scope() is null and every instrument resolves null.
  const obs::Scope s = scope();
  stack_.set_obs(s);
  overlay_.set_obs(s);
  global_vttif_->set_obs(s);
  migration_.set_obs(s);
  view_.set_obs(s);
  // Every SA / multistart run launched through this system reports into
  // the same registry.
  config_.annealing.obs = s;
  c_adaptations_ = s.counter("virtuoso.adaptations");
  c_migrations_issued_ = s.counter("virtuoso.migrations.issued");
  c_wren_reports_ = s.counter("virtuoso.reports.wren");
  c_migration_failures_ = s.counter("virtuoso.migrations.failed");
  c_replans_ = s.counter("virtuoso.replans");
  c_daemons_dead_ = s.counter("virtuoso.daemons.declared_dead");
  c_warm_starts_ = s.counter("virtuoso.adapt.warm_starts");
  c_cold_starts_ = s.counter("virtuoso.adapt.cold_starts");
  h_warm_delta_pairs_ = s.histogram("vadapt.warm.delta_pairs");
  if (warm_) warm_->params().obs = s;
}

std::uint64_t VirtuosoSystem::finish_capture() {
  std::uint64_t records = 0;
  for (auto& [host, rt] : runtimes_) records += rt.analyzer->trace().finish_capture();
  return records;
}

vnet::VnetDaemon& VirtuosoSystem::add_daemon(net::NodeId host, std::string name, bool is_proxy) {
  vnet::VnetDaemon& daemon = overlay_.create_daemon(host, name, is_proxy);
  DaemonRuntime rt;
  rt.analyzer = std::make_unique<wren::OnlineAnalyzer>(network_, host);
  rt.analyzer->set_obs(scope());
  if (!config_.capture_dir.empty()) {
    rt.analyzer->trace().capture_to(
        (std::filesystem::path(config_.capture_dir) /
         ("trace_host" + std::to_string(host) + ".vwtrace"))
            .string(),
        static_cast<std::uint32_t>(runtimes_.size()));
  }
  rt.local_vttif = std::make_unique<vttif::LocalVttif>(
      sim_, daemon, [this](net::NodeId reporter, const vttif::TrafficMatrix& m) {
        // Ship the local matrix to the Proxy through the control plane
        // (the paper: "VTTIF uses VNET to periodically send the local
        // matrices to the Proxy machine"). Before bootstrap, apply locally.
        if (control_) {
          control_->send(reporter, encode_vttif_update(reporter, m));
        } else {
          global_vttif_->update_from(reporter, m);
        }
      });
  rt.local_vttif->set_obs(scope());
  runtimes_.emplace(host, std::move(rt));
  return daemon;
}

void VirtuosoSystem::bootstrap(vnet::LinkProtocol proto) {
  VW_REQUIRE(!bootstrapped_, "VirtuosoSystem: already bootstrapped");
  overlay_.bootstrap_star(proto);

  // Control plane: daemons ship reports to the Proxy over real TCP
  // connections; the Proxy folds them into its global views.
  control_ = std::make_unique<vnet::ControlPlane>(stack_, overlay_.proxy().host(), kRootPort,
                                                  config_.control);
  control_->set_obs(scope());
  // Every handler decodes its whole message before it touches state; a
  // field that does not decode throws std::runtime_error, which the control
  // plane counts as a parse failure and drops.
  control_->register_handler("Heartbeat", [this](const soap::XmlNode& msg) {
    note_report(soap::attr<net::NodeId>(msg, "reporter"));
  });
  control_->register_handler("VttifUpdate", [this](const soap::XmlNode& msg) {
    const auto reporter = soap::attr<net::NodeId>(msg, "reporter");
    const vttif::TrafficMatrix matrix = decode_vttif_entries(msg);
    note_report(reporter);
    global_vttif_->update_from(reporter, matrix);
  });
  control_->register_handler("WrenReport", [this](const soap::XmlNode& msg) {
    std::vector<wren::PathReading> readings;
    const net::NodeId reporter = wren::parse_wren_report_xml(msg, readings);
    note_report(reporter);
    const SimTime now = sim_.now();
    for (const wren::PathReading& r : readings) {
      if (r.bandwidth_bps) view_.update_bandwidth(reporter, r.peer, *r.bandwidth_bps, now);
      if (r.latency_s) view_.update_latency(reporter, r.peer, *r.latency_s, now);
    }
  });
  if (config_.federation.enabled) bootstrap_federation();

  for (auto& [host, rt] : runtimes_) start_reporting(host);

  // Daemon-failure detection: every host starts with the benefit of the
  // doubt (stamped "seen" at bootstrap); the liveness sweep declares a host
  // dead once its reports go missing for daemon_timeout.
  if (config_.daemon_timeout > 0) {
    for (const auto& [host, rt] : runtimes_) last_report_[host] = sim_.now();
    const SimTime sweep = std::max<SimTime>(millis(100), config_.daemon_timeout / 2);
    liveness_task_ = std::make_unique<sim::PeriodicTask>(sim_, sweep,
                                                         [this] { liveness_tick(); });
  }
  bootstrapped_ = true;
}

void VirtuosoSystem::start_reporting(net::NodeId host) {
  // "VTTIF executes nonblocking calls to Wren to collect updates on
  // available bandwidth and latency from the local host to other VNET
  // hosts", then ships them to the Proxy which maintains the global view.
  // Under federation the report stream is redirected to the host's
  // regional proxy instead (report_plane()).
  DaemonRuntime& rt = runtimes_.at(host);
  rt.reporter = std::make_unique<sim::PeriodicTask>(
      sim_, kWrenReportPeriod, [this, host] { send_wren_report(host); });
  // Heartbeats prove the daemon alive even when it has nothing to report
  // (VTTIF pushes skip empty matrices, Wren reports skip peerless hosts).
  if (config_.control_heartbeat_period > 0) {
    rt.heartbeat = std::make_unique<sim::PeriodicTask>(
        sim_, config_.control_heartbeat_period,
        [this, host] { report_plane(host).send(host, encode_heartbeat(host)); });
  }
}

void VirtuosoSystem::send_wren_report(net::NodeId host) {
  auto it = runtimes_.find(host);
  if (it == runtimes_.end() || !it->second.reporter) return;  // daemon gone
  // A host whose analyzer has no peers (what GetPeers would serve) has
  // nothing to report; otherwise the report ships over the control plane.
  if (it->second.analyzer->peers().empty()) return;
  obs::add(c_wren_reports_);
  report_plane(host).send(host, encode_wren_report(host, *it->second.analyzer));
}

void VirtuosoSystem::note_report(net::NodeId reporter) {
  note_report_at(reporter, sim_.now());
}

void VirtuosoSystem::note_report_at(net::NodeId reporter, SimTime at) {
  // Liveness evidence may arrive out of order (e.g. HostSeen records ride a
  // delayed summary); only ever move the timestamp forward.
  SimTime& last = last_report_[reporter];
  last = std::max(last, at);
}

void VirtuosoSystem::liveness_tick() {
  const SimTime now = sim_.now();
  for (const auto& [host, rt] : runtimes_) {
    const auto it = last_report_.find(host);
    const SimTime last = it != last_report_.end() ? it->second : SimTime(0);
    const bool timed_out = now - last > config_.daemon_timeout;
    if (timed_out && !dead_daemons_.contains(host)) {
      dead_daemons_.insert(host);
      ++daemons_declared_dead_;
      obs::add(c_daemons_dead_);
      // Its measurements describe paths nobody can confirm any more.
      const std::size_t invalidated = view_.invalidate_host(host);
      scope().instant("virtuoso.daemon.dead", "virtuoso",
                      {{"host", std::to_string(host)},
                       {"silent_s", std::to_string(to_seconds(now - last))},
                       {"invalidated", std::to_string(invalidated)}});
    } else if (!timed_out && dead_daemons_.contains(host)) {
      // It reported again: resurrection.
      dead_daemons_.erase(host);
      scope().instant("virtuoso.daemon.alive", "virtuoso", {{"host", std::to_string(host)}});
    }
  }
}

void VirtuosoSystem::refresh_view_before_planning() {
  // Order matters: declare timed-out daemons dead (invalidating their view
  // entries) and physically drop expired measurements first, so the
  // adjacency snapshot capacity_graph() takes next reflects the sweep
  // instead of racing it.
  if (config_.daemon_timeout > 0 && bootstrapped_) liveness_tick();
  view_.expire_stale();
  if (federation_ != nullptr) {
    for (FederationRegion& reg : federation_->regions) reg.proxy->view().expire_stale();
  }
}

// --- federation --------------------------------------------------------------

const wren::RegionMap* VirtuosoSystem::region_map() const {
  return federation_ ? &federation_->region_map : nullptr;
}

wren::FederationRoot* VirtuosoSystem::federation_root() {
  return federation_ ? federation_->root.get() : nullptr;
}

VirtuosoSystem::FederationRegion* VirtuosoSystem::region_at(wren::RegionId region) {
  if (!federation_ || region >= federation_->regions.size()) return nullptr;
  return &federation_->regions[region];
}

wren::RegionalProxy* VirtuosoSystem::regional_proxy(wren::RegionId region) {
  FederationRegion* reg = region_at(region);
  return reg ? reg->proxy.get() : nullptr;
}

vnet::ControlPlane* VirtuosoSystem::regional_control(wren::RegionId region) {
  FederationRegion* reg = region_at(region);
  return reg ? reg->control.get() : nullptr;
}

vnet::ControlPlane& VirtuosoSystem::report_plane(net::NodeId host) {
  vnet::ControlPlane* regional =
      federation_ ? regional_control(federation_->region_map.region_of(host)) : nullptr;
  return regional ? *regional : *control_;
}

wren::RegionalProxy* VirtuosoSystem::regional_proxy_for(net::NodeId host) {
  if (!federation_) return nullptr;
  return regional_proxy(federation_->region_map.region_of(host));
}

void VirtuosoSystem::bootstrap_federation() {
  const wren::FederationConfig& fc = config_.federation;
  const std::vector<net::NodeId> hosts = overlay_.daemon_hosts();
  VW_REQUIRE(fc.regions >= 1, "federation: need at least one region");
  VW_REQUIRE(fc.regions <= hosts.size(), "federation: ", fc.regions, " regions but only ",
             hosts.size(), " daemon hosts");

  auto fed = std::make_unique<FederationRuntime>();
  fed->region_map = wren::RegionMap::round_robin(hosts, fc.regions);

  fed->root = std::make_unique<wren::FederationRoot>(view_, fed->region_map);
  // Liveness evidence rides the summaries: a HostSeen record proves the
  // daemon was alive at its ORIGINAL timestamp (the same preserved-clock
  // contract the view entries follow).
  fed->root->set_host_seen_fn(
      [this](net::NodeId host, SimTime at) { note_report_at(host, at); });
  fed->root->set_obs(scope());

  // Summaries arrive at the root over the regular control plane, so their
  // traffic crosses the simulated network and is measurable against the
  // per-daemon reports they replace.
  control_->register_handler("FederationSummary", [this](const soap::XmlNode& msg) {
    if (!federation_) return;
    const auto reporter = soap::attr<net::NodeId>(msg, "reporter");
    const wren::FederationSummary summary = wren::summary_from_hex(msg.child_text("summary"));
    note_report(reporter);
    if (federation_->root->apply_summary(summary, sim_.now()) > 0) {
      // The sequence numbers prove summaries were lost on the way, and with
      // them entries that sampling may not export again: the region's next
      // export bypasses sampling. `region` came off the wire.
      if (FederationRegion* reg = region_at(summary.region)) reg->full_export_due = true;
    }
  });

  for (wren::RegionId r = 0; r < static_cast<wren::RegionId>(fc.regions); ++r) {
    // Region r sits at index r: round-robin gives it at least host r.
    std::vector<net::NodeId> region_hosts = fed->region_map.hosts_in(r);
    VW_ASSERT(!region_hosts.empty(), "federation: region ", r, " has no daemon host");
    FederationRegion reg;
    reg.proxy_host = region_hosts.front();
    reg.control = std::make_unique<vnet::ControlPlane>(stack_, reg.proxy_host,
                                                       kRegionalPort, config_.control);
    reg.control->set_obs(scope());
    wren::RegionalProxyParams params;
    params.summary_max_pairs = fc.summary_max_pairs;
    params.staleness_horizon = config_.view_staleness_horizon;
    reg.proxy = std::make_unique<wren::RegionalProxy>(r, fed->region_map, params);
    reg.proxy->set_clock([this] { return sim_.now(); });
    reg.proxy->set_obs(scope());

    wren::RegionalProxy* proxy = reg.proxy.get();
    reg.control->register_handler("Heartbeat", [this, proxy](const soap::XmlNode& msg) {
      proxy->note_host(soap::attr<net::NodeId>(msg, "reporter"), sim_.now());
    });
    reg.control->register_handler("WrenReport", [this, proxy](const soap::XmlNode& msg) {
      std::vector<wren::PathReading> readings;
      const net::NodeId reporter = wren::parse_wren_report_xml(msg, readings);
      proxy->apply_report(reporter, readings, sim_.now());
    });

    reg.exporter = std::make_unique<sim::PeriodicTask>(
        sim_, fc.export_period, [this, r] { export_summary(r); });
    fed->regions.push_back(std::move(reg));
  }

  federation_ = std::move(fed);
}

void VirtuosoSystem::export_summary(wren::RegionId region) {
  FederationRegion& reg = federation_->regions.at(region);
  const wren::FederationSummary summary =
      reg.proxy->build_summary(sim_.now(), std::exchange(reg.full_export_due, false));
  soap::XmlNode msg;
  msg.name = "FederationSummary";
  msg.attributes["reporter"] = std::to_string(reg.proxy_host);
  msg.attributes["region"] = std::to_string(region);
  msg.add_text_child("summary", wren::summary_to_hex(summary));
  // Even an empty summary ships: it advances the sequence number (gap
  // detection) and doubles as the regional proxy's liveness signal.
  control_->send(reg.proxy_host, msg);
}

void VirtuosoSystem::prepare_federation_for_plan(const std::vector<vadapt::Demand>& demands) {
  // Demand push-down: tell each regional proxy which of its pairs carry VM
  // traffic, so top-k sampling keeps the pairs the next plan will price.
  for (FederationRegion& reg : federation_->regions) reg.proxy->clear_demand_weights();
  for (const vadapt::Demand& d : demands) {
    if (d.src >= vms_.size() || d.dst >= vms_.size()) continue;
    if (!vms_[d.src]->attached() || !vms_[d.dst]->attached()) continue;
    const net::NodeId from = vms_[d.src]->host();
    const net::NodeId to = vms_[d.dst]->host();
    if (from == to) continue;
    if (wren::RegionalProxy* proxy = regional_proxy_for(from)) {
      proxy->set_demand_weight(from, to, d.rate_bps);
    }
  }
}

void VirtuosoSystem::kill_daemon(net::NodeId host) {
  DaemonRuntime& rt = runtimes_.at(host);
  rt.reporter.reset();
  rt.heartbeat.reset();
  if (rt.local_vttif) {
    // The frame observer captures the LocalVttif being destroyed.
    overlay_.daemon_on(host).set_frame_observer(nullptr);
    rt.local_vttif.reset();
  }
  scope().instant("virtuoso.daemon.killed", "virtuoso", {{"host", std::to_string(host)}});
}

std::vector<net::NodeId> VirtuosoSystem::live_daemon_hosts() const {
  std::vector<net::NodeId> hosts;
  for (net::NodeId h : overlay_.daemon_hosts()) {
    if (daemon_alive(h)) hosts.push_back(h);
  }
  return hosts;
}

vm::VirtualMachine& VirtuosoSystem::create_vm(const std::string& name, net::NodeId host,
                                              std::uint64_t memory_bytes) {
  auto machine = std::make_unique<vm::VirtualMachine>(sim_, overlay_, next_mac_++, name,
                                                      memory_bytes);
  machine->attach(host);
  vms_.push_back(std::move(machine));
  return *vms_.back();
}

wren::OnlineAnalyzer& VirtuosoSystem::wren_on(net::NodeId host) {
  return *runtimes_.at(host).analyzer;
}

vadapt::CapacityGraph VirtuosoSystem::capacity_graph() const {
  // Dead daemons drop out: VADAPT must not place VMs on hosts whose daemon
  // stopped answering.
  std::vector<net::NodeId> hosts = live_daemon_hosts();
  vadapt::CapacityGraph graph(hosts, config_.default_bandwidth_bps, 0.001);
  const wren::FederationRoot* fed_root = federation_ ? federation_->root.get() : nullptr;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = 0; j < hosts.size(); ++j) {
      if (i == j) continue;
      if (auto bw = view_.bandwidth_bps(hosts[i], hosts[j])) {
        graph.set_bandwidth(i, j, *bw);
      } else if (fed_root != nullptr) {
        // No exact entry at the root (suppressed by top-k sampling): the
        // region-to-region aggregate is a better prior than the global
        // default capacity.
        if (auto abw = fed_root->aggregate_bandwidth(hosts[i], hosts[j])) {
          graph.set_bandwidth(i, j, *abw);
        }
      }
      if (auto lat = view_.latency_seconds(hosts[i], hosts[j])) {
        graph.set_latency(i, j, *lat);
      } else if (fed_root != nullptr) {
        if (auto alat = fed_root->aggregate_latency(hosts[i], hosts[j])) {
          graph.set_latency(i, j, *alat);
        }
      }
    }
  }
  return graph;
}

std::optional<vadapt::VmIndex> VirtuosoSystem::vm_index_for_mac(vnet::MacAddress mac) const {
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    if (vms_[i]->mac() == mac) return i;
  }
  return std::nullopt;
}

std::vector<vadapt::Demand> VirtuosoSystem::current_demands() const {
  std::vector<vadapt::Demand> demands;
  for (const vttif::TopologyEdge& e : global_vttif_->current_topology().edges) {
    const auto src = vm_index_for_mac(e.src);
    const auto dst = vm_index_for_mac(e.dst);
    if (!src || !dst) continue;
    demands.push_back(vadapt::Demand{*src, *dst, e.rate_bps});
  }
  return demands;
}

namespace {

const char* algorithm_name(AdaptationAlgorithm a) {
  switch (a) {
    case AdaptationAlgorithm::kGreedy: return "GH";
    case AdaptationAlgorithm::kMultiStartAnnealing: return "MS-SA";
  }
  return "?";
}

}  // namespace

AdaptationOutcome VirtuosoSystem::adapt_now(AdaptationAlgorithm algorithm) {
  obs::EventTracer::Span adapt_span = scope().span("virtuoso.adapt", "virtuoso");
  adapt_span.arg("algorithm", algorithm_name(algorithm));
  obs::add(c_adaptations_);

  // Snapshot-ordering contract: sweep liveness and expire stale entries
  // BEFORE the adjacency snapshot below, so the plan can never optimize
  // over measurements a concurrent sweep was about to invalidate.
  refresh_view_before_planning();
  const std::vector<vadapt::Demand> demands = current_demands();
  if (federation_ != nullptr) prepare_federation_for_plan(demands);
  const std::size_t n_vms = vms_.size();

  // Warm-start entry point (DESIGN.md §5j): every adaptation trigger —
  // manual, auto, cooldown-deferred failure re-plan, federated — lands here,
  // so they all ride the streaming path when the incumbent still fits.
  if (warm_ != nullptr) {
    wren::ViewDelta delta = view_.drain_delta();
    if (n_vms >= vadapt::kWarmMinVms &&
        warm_->compatible(live_daemon_hosts(), demands, n_vms) &&
        warm_->delta_acceptable(delta)) {
      ++warm_starts_;
      obs::add(c_warm_starts_);
      obs::record(h_warm_delta_pairs_, static_cast<double>(delta.pair_count()));
      // A fresh named stream per adaptation epoch: warm bursts never
      // perturb the RNG streams the cold algorithms draw from.
      Rng rng = rng_service_.stream("vadapt.warm.burst." + std::to_string(warm_epoch_++));
      warm_->adapt(delta, demands, std::move(rng));
      AdaptationOutcome outcome;
      outcome.migrations = apply_configuration(warm_->graph(), demands, warm_->incumbent());
      outcome.configuration = warm_->incumbent();
      outcome.evaluation = warm_->evaluation();
      outcome.demands = demands;
      outcome.hosts = warm_->graph().hosts();
      adapt_span.arg("warm", "1");
      adapt_span.arg("demands", std::to_string(demands.size()));
      adapt_span.arg("migrations", std::to_string(outcome.migrations));
      adapt_span.arg("cost_mbps", std::to_string(outcome.evaluation.cost / 1e6));
      adapt_span.arg("feasible", outcome.evaluation.feasible ? "1" : "0");
      return outcome;
    }
    // Cold fallback: no/incompatible incumbent, too-small problem, or a
    // delta past the warm threshold. The delta is already drained — the
    // cold solve below re-snapshots the view from scratch.
    ++cold_starts_;
    obs::add(c_cold_starts_);
  }

  const vadapt::CapacityGraph graph = capacity_graph();

  vadapt::Configuration conf;
  vadapt::Evaluation eval;
  switch (algorithm) {
    case AdaptationAlgorithm::kGreedy: {
      auto gh = vadapt::greedy_heuristic(graph, demands, n_vms, config_.objective,
                                         scope());
      conf = std::move(gh.configuration);
      eval = gh.evaluation;
      break;
    }
    case AdaptationAlgorithm::kMultiStartAnnealing: {
      auto gh = vadapt::greedy_heuristic(graph, demands, n_vms, config_.objective, scope());
      vadapt::MultiStartParams ms = config_.multistart;
      ms.annealing = config_.annealing;
      ms.seed = rng_service_.seed_for("vadapt.multistart");
      const std::size_t threads = vadapt::multi_start_threads(ms);
      if (ms.pool == nullptr && threads > 1) {
        if (annealing_pool_ == nullptr) annealing_pool_ = std::make_unique<ThreadPool>(threads);
        ms.pool = annealing_pool_.get();
      }
      auto result = vadapt::multi_start_annealing(graph, demands, n_vms, config_.objective, ms,
                                                  std::move(gh.configuration));
      conf = std::move(result.best.best);
      eval = result.best.best_evaluation;
      break;
    }
  }

  // The cold result seeds the next warm adaptation's incumbent.
  if (warm_ != nullptr) warm_->adopt(graph, demands, n_vms, conf, config_.objective);

  AdaptationOutcome outcome;
  outcome.migrations = apply_configuration(graph, demands, conf);
  outcome.configuration = std::move(conf);
  outcome.evaluation = eval;
  outcome.demands = demands;
  outcome.hosts = graph.hosts();
  adapt_span.arg("demands", std::to_string(demands.size()));
  adapt_span.arg("migrations", std::to_string(outcome.migrations));
  adapt_span.arg("cost_mbps", std::to_string(eval.cost / 1e6));
  adapt_span.arg("feasible", eval.feasible ? "1" : "0");
  return outcome;
}

void VirtuosoSystem::on_migration_failed(net::NodeId source, net::NodeId target) {
  obs::add(c_migration_failures_);
  // Whatever Wren believed about this pair predates the failure; force the
  // planner to re-measure (or fall back) before trusting it again.
  view_.invalidate(source, target);
  view_.invalidate(target, source);
  if (!auto_adapt_enabled_ || replan_pending_) return;
  // Re-plan around the dead pair, but never inside the failure callback and
  // never faster than the adaptation cooldown allows.
  replan_pending_ = true;
  const SimTime at = std::max(sim_.now(), last_auto_adapt_ + auto_cooldown_);
  sim_.schedule_at(at, [this] { try_failure_replan(); });
}

void VirtuosoSystem::try_failure_replan() {
  if (!auto_adapt_enabled_) {
    replan_pending_ = false;
    return;
  }
  if (live_daemon_hosts().size() < vms_.size()) {
    // Not enough live hosts to place every VM; wait out another cooldown
    // for daemons to resurrect rather than planning an impossible mapping.
    sim_.schedule_at(sim_.now() + auto_cooldown_, [this] { try_failure_replan(); });
    return;
  }
  replan_pending_ = false;
  last_auto_adapt_ = sim_.now();
  ++auto_adaptations_;
  ++failure_replans_;
  obs::add(c_replans_);
  adapt_now(auto_algorithm_);
}

void VirtuosoSystem::enable_auto_adaptation(AdaptationAlgorithm algorithm, SimTime cooldown) {
  auto_adapt_enabled_ = true;
  auto_algorithm_ = algorithm;
  auto_cooldown_ = cooldown;
  global_vttif_->set_on_change([this](const vttif::Topology&) {
    if (!auto_adapt_enabled_) return;
    if (live_daemon_hosts().size() < vms_.size()) return;
    const SimTime now = sim_.now();
    if (auto_adaptations_ > 0 && now - last_auto_adapt_ < auto_cooldown_) return;
    last_auto_adapt_ = now;
    ++auto_adaptations_;
    adapt_now(auto_algorithm_);
  });
}

void VirtuosoSystem::disable_auto_adaptation() {
  auto_adapt_enabled_ = false;
  global_vttif_->set_on_change(nullptr);
}

std::size_t VirtuosoSystem::apply_configuration(const vadapt::CapacityGraph& graph,
                                                const std::vector<vadapt::Demand>& demands,
                                                const vadapt::Configuration& conf) {
  VW_REQUIRE(conf.mapping.size() == vms_.size(),
             "apply_configuration: mapping places ", conf.mapping.size(), " VMs, system has ",
             vms_.size());

  // Compute the migration set ("compute the differences between the current
  // mapping and the new mapping and issue migration instructions").
  std::size_t migrations = 0;
  for (std::size_t v = 0; v < vms_.size(); ++v) {
    const net::NodeId target = graph.host(conf.mapping[v]);
    if (!vms_[v]->attached() || vms_[v]->host() != target) {
      const std::optional<net::NodeId> source =
          vms_[v]->attached() ? std::optional<net::NodeId>(vms_[v]->host()) : std::nullopt;
      migration_.migrate(*vms_[v], target,
                         [this, source, target](vm::VirtualMachine&,
                                                vm::MigrationStatus status) {
                           if (status != vm::MigrationStatus::kFailed || !source) return;
                           on_migration_failed(*source, target);
                         });
      ++migrations;
      obs::add(c_migrations_issued_);
    }
  }

  // Re-derive the overlay topology and forwarding rules from the paths.
  overlay_.reset_to_star();
  for (std::size_t d = 0; d < demands.size() && d < conf.paths.size(); ++d) {
    const vadapt::Path& p = conf.paths[d];
    std::vector<net::NodeId> host_path;
    host_path.reserve(p.size());
    for (vadapt::HostIndex h : p) host_path.push_back(graph.host(h));
    overlay_.install_path(host_path, vms_[demands[d].dst]->mac());
  }
  return migrations;
}

}  // namespace vw::virtuoso
