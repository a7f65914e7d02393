#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>

#include "soap/xml.hpp"
#include "vadapt/greedy.hpp"
#include "vadapt/multistart.hpp"
#include "wren/federation.hpp"
#include "wren/sic.hpp"
#include "wren/train.hpp"

namespace loopbench {

using namespace vw;

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

namespace {
using CalibrationEvent = std::pair<std::uint64_t, std::uint32_t>;
constexpr std::size_t kCalibrationEvents = 1024;
constexpr std::size_t kCalibrationSlots = std::size_t{1} << 16;  // 512 KiB
// Static storage: the calibration kernel never touches the heap.
std::array<CalibrationEvent, kCalibrationEvents> calibration_events;
std::array<std::uint64_t, kCalibrationSlots> calibration_slots;
}  // namespace

double machine_speed(int rounds) {
  // One round's host time on the reference machine state.
  constexpr double kNominalRoundSeconds = 0.002;
  constexpr int kSteps = 20000;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const std::greater<> later;
  auto& heap = calibration_events;
  std::uint64_t sum = 0;
  const auto t0 = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    calibration_slots.fill(0);
    for (std::uint32_t i = 0; i < kCalibrationEvents; ++i) heap[i] = {next() % 1000000, i};
    std::make_heap(heap.begin(), heap.end(), later);
    for (int step = 0; step < kSteps; ++step) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const auto [at, id] = heap.back();
      std::uint64_t& v = calibration_slots[id % kCalibrationSlots];
      v += at;
      sum += v;
      heap.back() = {at + next() % 1000, static_cast<std::uint32_t>(next())};
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  const double host = seconds_since(t0);
  if (sum == 0) std::abort();  // keeps the kernel's work observable
  return kNominalRoundSeconds * rounds / host;
}

std::size_t live_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoul(line.substr(8));
  }
  return 0;  // unknown: not a Linux procfs
}

void run_timed(sim::Simulator& sim, SimTime until, Iteration& it, Ledger& ledger) {
  const auto calibrate = [&ledger] {
    return ledger.span("calibrate", [] { return machine_speed(1); });
  };
  if (it.slice_speed == 0) it.slice_speed = calibrate();
  const SimTime from = sim.now();
  const auto t0 = Clock::now();
  sim.run_until(until);
  const double wall = seconds_since(t0);
  const double speed_after = calibrate();
  it.loop_wall_s += wall;
  it.loop_scaled_s += wall * (it.slice_speed + speed_after) / 2;
  it.slice_speed = speed_after;
  it.sim_s += to_seconds(until - from);
  if (ledger.enabled()) ledger.add("sim", wall);
}

// --- ground truth ----------------------------------------------------------------

void GroundTruth::watch(net::NodeId a, net::NodeId b) {
  std::vector<const net::LinkProbe*>& path = paths_[{a, b}];
  if (!path.empty()) return;
  for (net::NodeId at = a; at != b;) {
    const net::NodeId next = network_.next_hop(at, b);
    if (next == net::kInvalidNode) break;
    std::unique_ptr<net::LinkProbe>& probe = probes_[{at, next}];
    if (probe == nullptr) {
      probe = std::make_unique<net::LinkProbe>(network_.simulator(), network_.channel(at, next),
                                               period_);
    }
    path.push_back(probe.get());
    at = next;
  }
}

std::optional<double> GroundTruth::available_bps(net::NodeId a, net::NodeId b) const {
  const auto found = paths_.find({a, b});
  if (found == paths_.end() || found->second.empty() || !network_.path_up(a, b) ||
      found->second.front()->samples().empty()) {
    return std::nullopt;
  }
  const std::vector<const net::LinkProbe*>& path = found->second;
  double residual = path.front()->current_available_bps();
  for (const net::LinkProbe* p : path) residual = std::min(residual, p->current_available_bps());
  return std::min(capacity_bps(a, b), residual + path.front()->samples().back().utilized_bps);
}

double GroundTruth::capacity_bps(net::NodeId a, net::NodeId b) const {
  const auto found = paths_.find({a, b});
  if (found == paths_.end() || found->second.empty()) return 0.0;
  double capacity = found->second.front()->channel().capacity_bps();
  for (const net::LinkProbe* p : found->second) {
    capacity = std::min(capacity, p->channel().capacity_bps());
  }
  return capacity;
}

vadapt::CapacityGraph truth_graph(const net::Network& network,
                                  const std::vector<net::NodeId>& hosts) {
  vadapt::CapacityGraph graph(hosts);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = 0; j < hosts.size(); ++j) {
      if (i == j) continue;
      graph.set_bandwidth(i, j, network.path_bottleneck_bps(hosts[i], hosts[j]));
      graph.set_latency(i, j, to_seconds(network.path_prop_delay(hosts[i], hosts[j])));
    }
  }
  return graph;
}

double placement_cost_mbps(const net::Network& network,
                           const std::vector<net::NodeId>& daemon_hosts,
                           const std::vector<vm::VirtualMachine*>& vms,
                           const std::vector<vadapt::Demand>& demands) {
  const vadapt::CapacityGraph truth = truth_graph(network, daemon_hosts);
  vadapt::Configuration conf;
  for (const vm::VirtualMachine* machine : vms) {
    if (!machine->attached()) return 0;
    const auto index = truth.index_of(machine->host());
    if (!index) return 0;
    conf.mapping.push_back(*index);
  }
  for (const vadapt::Demand& d : demands) {
    conf.paths.push_back({conf.mapping[d.src], conf.mapping[d.dst]});
  }
  return vadapt::evaluate(truth, demands, conf).cost / 1e6;
}

double vm_payload_bytes(const std::vector<vm::VirtualMachine*>& vms) {
  double bytes = 0;
  for (const vm::VirtualMachine* machine : vms) {
    bytes += static_cast<double>(machine->bytes_received());
  }
  return bytes;
}

double goodput_ratio(net::Network& network, const std::vector<net::NodeId>& hosts,
                     const std::vector<vm::VirtualMachine*>& vms) {
  const double app = vm_payload_bytes(vms);
  double wire = 0;
  for (const net::NodeId h : hosts) {
    const net::NodeId other = h == hosts.front() ? hosts.back() : hosts.front();
    const net::NodeId first_hop = network.next_hop(h, other);
    if (first_hop == net::kInvalidNode) continue;
    wire += static_cast<double>(network.channel(h, first_hop).stats().bytes_serialized);
  }
  return wire > 0 ? app / wire : 0.0;
}

// --- planning ----------------------------------------------------------------------

ShadowPlanner::ShadowPlanner(const virtuoso::SystemConfig& config,
                             virtuoso::AdaptationAlgorithm algorithm, int passes)
    : config_(config), algorithm_(algorithm), passes_(passes) {}

std::optional<double> ShadowPlanner::plan(virtuoso::VirtuosoSystem& system, Ledger& ledger,
                                          std::uint64_t epoch) {
  const auto t0 = Clock::now();
  for (int pass = 0; pass < passes_; ++pass) {
    const vadapt::CapacityGraph graph =
        ledger.span("view", [&] { return system.capacity_graph(); });
    const std::vector<vadapt::Demand> demands =
        ledger.span("vttif", [&] { return system.current_demands(); });
    const std::size_t n_vms = system.vms().size();
    // While daemons are declared dead the live hosts cannot hold every VM;
    // the system itself does not plan then either.
    if (graph.size() < n_vms) return std::nullopt;
    ledger.span("vadapt", [&] {
      vadapt::GreedyResult gh =
          vadapt::greedy_heuristic(graph, demands, n_vms, config_.objective);
      if (algorithm_ != virtuoso::AdaptationAlgorithm::kMultiStartAnnealing) return;
      vadapt::MultiStartParams ms = config_.multistart;
      ms.annealing = config_.annealing;
      ms.seed = RngService(config_.seed).seed_for("loopbench.shadow." + std::to_string(epoch));
      ms.pool = nullptr;
      ms.threads = 1;
      vadapt::multi_start_annealing(graph, demands, n_vms, config_.objective, ms,
                                    std::move(gh.configuration));
    });
  }
  return seconds_since(t0) * 1e3 / passes_;
}

void time_planner_inputs(virtuoso::VirtuosoSystem& system, Ledger& ledger, Iteration& it) {
  if (!ledger.enabled()) return;
  ledger.span("view", [&] { return system.capacity_graph(); });
  const auto demands = ledger.span("vttif", [&] { return system.current_demands(); });
  it.layer["vttif.demand_pairs"] = static_cast<double>(demands.size());
}

void collect_layers(virtuoso::VirtuosoSystem& system, const Ledger& ledger, Iteration& it) {
  const obs::MetricsSnapshot snap = system.metrics()->snapshot();
  const auto count = [&](const char* name) -> double {
    const obs::MetricValue* m = snap.find(name);
    return m == nullptr ? 0.0 : static_cast<double>(m->count);
  };
  const auto sim = [&](const char* name) {
    const auto found = it.sim.find(name);
    return found == it.sim.end() ? 0.0 : found->second;
  };
  auto& L = it.layer;
  const double events = sim("sim.events");
  L["sim.events"] = events;
  L["sim.ns_per_event"] = events > 0 ? it.loop_wall_s * 1e9 / events : 0.0;
  L["net.packets_delivered"] = sim("net.packets_delivered");
  L["net.packets_dropped"] = sim("net.packets_dropped");
  L["transport.tcp.retransmits"] = count("transport.tcp.retransmits");
  L["transport.goodput_ratio"] = sim("transport.goodput_ratio");
  L["wren.records"] = count("wren.collect.records");
  L["wren.trains"] = count("wren.trains.extracted");
  L["wren.observations"] = count("wren.sic.observations");
  L["wren.train_yield"] = L["wren.trains"] > 0 ? L["wren.observations"] / L["wren.trains"] : 0.0;
  L["vnet.control.messages"] = count("vnet.control.delivered");
  L["vnet.control.resends"] = count("vnet.control.resends");
  L["vnet.control.reconnects"] = count("vnet.control.reconnects");
  double control_bytes = static_cast<double>(system.control_plane().bytes_shipped());
  if (system.federation_enabled()) {
    for (std::size_t r = 0; r < system.region_map()->region_count(); ++r) {
      control_bytes += static_cast<double>(system.regional_control(r)->bytes_shipped());
    }
  }
  L["vnet.control.bytes"] = control_bytes;
  L["wren.federation.summary_bytes"] =
      static_cast<double>(system.control_plane().delivered_bytes("FederationSummary"));
  L["view.updates"] = count("virtuoso.reports.wren") + count("wren.federation.entries_applied") +
                      sim("view.oracle_updates");
  L["view.rejected"] = static_cast<double>(system.network_view().rejected_reports());
  L["view.capacity_graph_ms"] = ledger.mean_seconds("view") * 1e3;
  L["vttif.current_demands_ms"] = ledger.mean_seconds("vttif") * 1e3;
  if (!L.contains("vttif.demand_pairs")) {
    L["vttif.demand_pairs"] = static_cast<double>(system.current_demands().size());
  }
  const double warm = static_cast<double>(system.warm_starts());
  const double cold = static_cast<double>(system.cold_starts());
  L["vadapt.warm_starts"] = warm;
  L["vadapt.cold_starts"] = cold;
  L["vadapt.warm_share"] = warm + cold > 0 ? warm / (warm + cold) : 0.0;
  const obs::MetricValue* delta = snap.find("vadapt.warm.delta_pairs");
  L["vadapt.warm.delta_pairs"] = delta == nullptr ? 0.0 : delta->histogram.mean();
  L["vm.migrations.started"] = static_cast<double>(system.migration().migrations_started());
  L["vm.migrations.failed"] = static_cast<double>(system.migration().migrations_failed());
  L["virtuoso.replans"] = static_cast<double>(system.failure_replans());
  L["virtuoso.daemons_dead"] = static_cast<double>(system.daemons_declared_dead());
  L["setup.topology_s"] = it.topology_s;
  L["setup.bootstrap_s"] = it.bootstrap_s;
  L["setup.vms_s"] = it.vms_s;
}

// --- per-class replays -------------------------------------------------------------

namespace {

enum class PacketClass { kAck, kData, kOther };

PacketClass classify(const wren::PacketRecord& r) {
  if (r.payload_bytes > 0) return PacketClass::kData;
  if (r.is_ack && !r.syn) return PacketClass::kAck;
  return PacketClass::kOther;
}

/// Host cost of one steady_clock::now() pair, subtracted from per-record spans.
double timer_overhead_ns() {
  constexpr int kReps = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    if (b < a) std::abort();
  }
  return seconds_since(t0) * 1e9 / kReps;
}

/// Sends each class's packets through a host-router-router-host datapath
/// and returns host ns per delivered packet.
double net_replay_ns(const std::vector<const wren::PacketRecord*>& records) {
  if (records.empty()) return 0.0;
  sim::Simulator sim;
  net::Network network(sim);
  const net::NodeId a = network.add_host("a");
  const net::NodeId r1 = network.add_router("r1");
  const net::NodeId r2 = network.add_router("r2");
  const net::NodeId b = network.add_host("b");
  const net::LinkConfig link{10e9, micros(50), std::int64_t{1} << 40};
  network.add_link(a, r1, link);
  network.add_link(r1, r2, link);
  network.add_link(r2, b, link);
  network.compute_routes();
  network.set_host_stack(b, [](net::Packet&&) {});

  constexpr std::size_t kBatch = 512;
  const std::uint64_t before = network.packets_delivered();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < records.size(); i += kBatch) {
    for (std::size_t k = i; k < std::min(records.size(), i + kBatch); ++k) {
      const wren::PacketRecord& r = *records[k];
      net::Packet pkt;
      pkt.flow = net::FlowKey{a, b, r.flow.src_port, r.flow.dst_port, net::Protocol::kTcp};
      pkt.payload_bytes = r.payload_bytes;
      pkt.seq = r.seq;
      pkt.ack = r.ack;
      pkt.is_ack = r.is_ack;
      network.send(std::move(pkt));
    }
    sim.run();
  }
  const double wall = seconds_since(t0);
  const std::uint64_t delivered = network.packets_delivered() - before;
  return delivered == 0 ? 0.0 : wall * 1e9 / static_cast<double>(delivered);
}

}  // namespace

RecordTap::RecordTap(net::Network& network, net::NodeId host, bool enabled) {
  if (enabled) trace_ = std::make_unique<wren::TraceFacility>(network, host, 1 << 18);
}

void RecordTap::drain() {
  if (trace_ == nullptr) return;
  std::vector<wren::PacketRecord> batch = trace_->collect();
  records_.insert(records_.end(), batch.begin(), batch.end());
}

void RecordTap::replay(Ledger& ledger, Iteration& it) {
  if (trace_ == nullptr) return;
  drain();
  auto& L = it.layer;

  // Net datapath, per packet class.
  std::vector<const wren::PacketRecord*> acks, data;
  for (const wren::PacketRecord& r : records_) {
    const PacketClass c = classify(r);
    if (c == PacketClass::kAck) acks.push_back(&r);
    if (c == PacketClass::kData) data.push_back(&r);
  }
  const auto t_net = Clock::now();
  const double ack_ns = net_replay_ns(acks);
  const double data_ns = net_replay_ns(data);
  ledger.add("replay.net", seconds_since(t_net));
  const double n_ack = static_cast<double>(acks.size());
  const double n_data = static_cast<double>(data.size());
  L["net.ns_per_packet.ack"] = ack_ns;
  L["net.ns_per_packet.data"] = data_ns;
  L["net.ns_per_packet"] =
      n_ack + n_data > 0 ? (ack_ns * n_ack + data_ns * n_data) / (n_ack + n_data) : 0.0;

  // Wren train extraction + SIC, replayed the way the analyzers consume the
  // trace: outgoing data segments feed train extraction, incoming pure ACKs
  // feed ACK matching, and SIC evaluation runs every 256 consumed records.
  // Evaluation is charged to the ACK class, whose arrival completes trains.
  const auto t_wren = Clock::now();
  const double overhead = timer_overhead_ns();
  struct FlowState {
    std::unique_ptr<wren::TrainExtractor> extractor;
    std::unique_ptr<wren::SicEstimator> estimator;
  };
  std::map<net::FlowKey, FlowState> flows;
  double data_total = 0, ack_total = 0;
  std::size_t data_n = 0, ack_n = 0, consumed = 0;
  const auto span_ns = [&](Clock::time_point a) {
    const std::chrono::duration<double, std::nano> span = Clock::now() - a;
    return std::max(0.0, span.count() - overhead);
  };
  SimTime last = 0;
  for (const wren::PacketRecord& r : records_) {
    last = std::max(last, r.timestamp);
    if (r.direction == net::TapDirection::kOutgoing && !r.is_ack && r.payload_bytes > 0) {
      const auto a = Clock::now();
      auto found = flows.find(r.flow);
      if (found == flows.end()) {
        FlowState st;
        st.estimator = std::make_unique<wren::SicEstimator>();
        wren::SicEstimator* est = st.estimator.get();
        st.extractor = std::make_unique<wren::TrainExtractor>(
            r.flow, wren::TrainParams{}, [est](const wren::Train& t) { est->add_train(t); });
        found = flows.emplace(r.flow, std::move(st)).first;
      }
      found->second.extractor->add(r);
      data_total += span_ns(a);
      ++data_n;
      ++consumed;
    } else if (r.direction == net::TapDirection::kIncoming && r.is_ack && r.payload_bytes == 0) {
      const auto a = Clock::now();
      auto found = flows.find(r.flow.reversed());
      if (found == flows.end()) continue;
      found->second.estimator->add_ack(r.timestamp, r.ack);
      ack_total += span_ns(a);
      ++ack_n;
      ++consumed;
    } else {
      continue;
    }
    if (consumed % 256 == 0) {
      const auto a = Clock::now();
      for (auto& [key, fs] : flows) fs.estimator->process(r.timestamp);
      ack_total += span_ns(a);
    }
  }
  for (auto& [key, fs] : flows) {
    fs.extractor->flush();
    fs.estimator->process(last + seconds(10.0));
  }
  ledger.add("replay.wren", seconds_since(t_wren));
  L["wren.replay_ns_per_record.data"] =
      data_n == 0 ? 0.0 : data_total / static_cast<double>(data_n);
  L["wren.replay_ns_per_record.ack"] = ack_n == 0 ? 0.0 : ack_total / static_cast<double>(ack_n);
  L["wren.replay_ns_per_record"] =
      consumed == 0 ? 0.0 : (data_total + ack_total) / static_cast<double>(consumed);
  L["wren.replay_records"] = static_cast<double>(consumed);
}

void replay_report_codec(const std::vector<net::NodeId>& hosts, Ledger& ledger, Iteration& it) {
  if (hosts.size() < 2) return;
  std::vector<wren::PathReading> readings;
  for (std::size_t i = 1; i < hosts.size() && readings.size() < 32; ++i) {
    readings.push_back({hosts[i], 10e6 * static_cast<double>(i), 1e-3 * static_cast<double>(i)});
  }
  const soap::XmlNode report = wren::encode_wren_report_xml(hosts.front(), readings);
  constexpr int kReps = 200;
  std::size_t parsed = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    std::vector<wren::PathReading> back;
    wren::parse_wren_report_xml(soap::parse_xml(soap::to_xml(report)), back);
    parsed += back.size();
  }
  const double wall = seconds_since(t0);
  ledger.add("replay.soap", wall);
  if (parsed != readings.size() * kReps) std::abort();
  it.layer["soap.report_codec_ns"] = wall * 1e9 / kReps;
}

void replay_fedsum_codec(const wren::GlobalNetworkView& view, Ledger& ledger, Iteration& it) {
  wren::FederationSummary summary;
  summary.region = 0;
  for (const auto& [pair, m] : view.entries()) {
    summary.entries.push_back({pair.first, pair.second, m.bandwidth_bps, m.latency_s,
                               m.updated_at, m.has_bandwidth, m.has_latency});
  }
  summary.total_pairs = summary.entries.size();
  constexpr int kReps = 50;
  const auto t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    if (wren::summary_from_hex(wren::summary_to_hex(summary)) != summary) std::abort();
  }
  const double wall = seconds_since(t0);
  ledger.add("replay.fedsum", wall);
  it.layer["wren.fedsum_codec_ns"] = wall * 1e9 / kReps;
  it.layer["wren.fedsum_entries"] = static_cast<double>(summary.entries.size());
}

}  // namespace loopbench
