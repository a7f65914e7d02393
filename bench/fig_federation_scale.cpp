// Federation-scale gate: the fleet-scale federated measurement plane
// (DESIGN.md §5i) on a BRITE physical topology, up to 1000 VNET daemons.
//
// For each fleet size n the scenario runs twice on identical report
// streams — once with the flat single-Proxy plane (every daemon's
// WrenReport lands on the root control plane) and once federated (reports
// land on per-region control planes; regional proxies export summarized
// vw.fedsum.v1 matrices upward). Each daemon reports k ground-truth path
// readings (BRITE routed-path bottleneck/latency) every report period; the
// 32-host candidate pool additionally reports all pool peers, and the
// planner's demand hints are pushed down so the hot pairs survive top-k
// selection, as in WLCG's regional rollups. Every reading is a report:
// nothing is probed on demand.
//
// Enforced gates (exit nonzero on violation), emitted as
// BENCH_federation.json:
//   * ratio: root view-update bytes (federated summaries / flat reports)
//     <= kRatioMax at every n — the constant-factor reduction.
//   * scaling: exponent of federated root bytes across the n range
//     <= kExponentMax < 2 — sublinear in n^2.
//   * convergence: greedy placement planned on the federated view, scored
//     under ground truth, within kGapMax of the flat-plane placement.
//   * serial oracle: region=1 + sampling off reproduces the flat
//     GlobalNetworkView bit-identically through the full
//     proxy -> codec -> root path.
//
// --metrics-json FILE additionally dumps the n=1000 federated run's
// telemetry snapshot (vw.metrics.v1) for tools/check_metrics.py
// --require-present 'wren.federation.*'.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "topo/brite.hpp"
#include "util/rng.hpp"
#include "vadapt/greedy.hpp"
#include "vadapt/problem.hpp"
#include "virtuoso/system.hpp"
#include "wren/federation.hpp"
#include "wren/view.hpp"

using namespace vw;

namespace {

constexpr double kRatioMax = 0.5;
constexpr double kExponentMax = 1.5;
constexpr double kGapMax = 0.15;
constexpr std::size_t kPoolSize = 32;   ///< candidate hosts for the 8-VM ring
constexpr std::size_t kPeersPerHost = 8;
constexpr std::size_t kRingVms = 8;
const SimTime kReportPeriod = seconds(2.0);
const SimTime kRunFor = seconds(21.0);

struct RunResult {
  std::size_t n = 0;
  std::size_t regions = 1;
  std::uint64_t root_view_bytes = 0;       ///< view-update traffic at the root
  std::uint64_t regional_report_bytes = 0; ///< report traffic absorbed per tier
  std::size_t root_view_pairs = 0;
  double coverage = 1.0;
  std::uint64_t seq_gaps = 0;
  double cost = 0;  ///< greedy placement scored under ground truth
  bool feasible = false;
  std::string metrics_json;
};

std::vector<std::size_t> pool_indices() {
  // Hosts 8..39: attachment routers are rng-chosen so these are random
  // placements, round-robin region assignment spreads them evenly across
  // regions (kPoolSize / regions demand sources each), and the skipped
  // prefix keeps the root proxy and every regional head (the report sinks,
  // whose pairs the daemons' own passive Wren measurements overwrite with
  // live control-traffic estimates) out of the candidate pool.
  std::vector<std::size_t> pool;
  for (std::size_t i = 0; i < kPoolSize; ++i) pool.push_back(8 + i);
  return pool;
}

RunResult run_scale(std::size_t n, bool federated, std::size_t regions, bool want_metrics) {
  topo::BriteParams bp;
  bp.nodes = n;  // >= daemon count: every daemon attaches to its own router
  bp.out_degree = 2;
  RngService rngs(4242);
  Rng gen = rngs.stream("fedscale.brite." + std::to_string(n));
  const topo::BriteTopology brite(bp, gen);

  sim::Simulator sim;
  Rng pick = rngs.stream("fedscale.hosts." + std::to_string(n));
  const topo::BriteNetwork bn = topo::make_brite_network(sim, brite, n, pick);

  virtuoso::SystemConfig config;
  config.telemetry = want_metrics;
  config.view_staleness_horizon = seconds(30.0);
  config.default_bandwidth_bps = 20e6;
  config.federation.enabled = federated;
  config.federation.regions = regions;
  config.federation.export_period = kReportPeriod;
  // Top-k budget sized so the demand-weighted pool pairs all survive
  // sampling: each region holds kPoolSize / regions demand sources, plus
  // slack for recency-ranked background pairs. Everything else is carried
  // only by the region-to-region aggregates.
  config.federation.summary_max_pairs =
      (kPoolSize / std::max<std::size_t>(1, regions)) * (kPoolSize - 1) + 64;
  virtuoso::VirtuosoSystem system(sim, *bn.network, config);
  for (std::size_t i = 0; i < bn.hosts.size(); ++i) {
    system.add_daemon(bn.hosts[i], "h" + std::to_string(i), i == 0);
  }
  system.bootstrap(vnet::LinkProtocol::kUdp);

  // Ground truth: the routed path between two daemons' attachment routers.
  const auto truth = [&](std::size_t i, std::size_t j) {
    return brite.path_metrics(bn.host_router[i], bn.host_router[j]);
  };

  // Fixed peer sets: k spread-out peers each; pool hosts also report every
  // pool peer so the flat plane's planner input is dense over the pool.
  const std::vector<std::size_t> pool = pool_indices();
  std::vector<std::vector<std::size_t>> peers(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 1; p <= kPeersPerHost; ++p) {
      const std::size_t j = (i + p * 37) % n;
      if (j != i) peers[i].push_back(j);
    }
  }
  for (const std::size_t a : pool) {
    for (const std::size_t b : pool) {
      if (a != b) peers[a].push_back(b);
    }
  }

  // The planner's demand hints, pushed down so every candidate-pool pair
  // survives the regional top-k (VirtuosoSystem::prepare_federation_for_plan
  // does the same from live VTTIF demands).
  if (federated) {
    for (const std::size_t a : pool) {
      wren::RegionalProxy* proxy = system.regional_proxy(
          system.region_map()->region_of(bn.hosts[a]));
      for (const std::size_t b : pool) {
        if (a != b) proxy->set_demand_weight(bn.hosts[a], bn.hosts[b], 1.0);
      }
    }
  }

  // The daemons' report streams: real control-plane traffic crossing the
  // simulated BRITE network into the flat root or the regional tier.
  sim::PeriodicTask reporter(sim, kReportPeriod, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<wren::PathReading> readings;
      readings.reserve(peers[i].size());
      for (const std::size_t j : peers[i]) {
        const auto [bw, lat] = truth(i, j);
        readings.push_back({bn.hosts[j], bw, lat});
      }
      const soap::XmlNode msg = wren::encode_wren_report_xml(bn.hosts[i], readings);
      if (federated) {
        const wren::RegionId r = system.region_map()->region_of(bn.hosts[i]);
        system.regional_control(r)->send(bn.hosts[i], msg);
      } else {
        system.control_plane().send(bn.hosts[i], msg);
      }
    }
  });

  sim.run_until(kRunFor);
  reporter.stop();

  RunResult res;
  res.n = n;
  res.regions = federated ? regions : 1;
  if (federated) {
    res.root_view_bytes = system.control_plane().delivered_bytes("FederationSummary");
    for (std::size_t r = 0; r < regions; ++r) {
      res.regional_report_bytes += system.regional_control(r)->delivered_bytes("WrenReport");
    }
    res.coverage = system.federation_root()->coverage();
    res.seq_gaps = system.federation_root()->seq_gaps();
  } else {
    res.root_view_bytes = system.control_plane().delivered_bytes("WrenReport");
  }
  res.root_view_pairs = system.network_view().entries().size();

  // Plan the 8-VM ring over the candidate pool on what this plane's root
  // actually knows (exact entries, then region aggregates, then default),
  // and score the placement under ground truth.
  std::vector<net::NodeId> pool_hosts;
  for (const std::size_t a : pool) pool_hosts.push_back(bn.hosts[a]);
  std::size_t pool_pairs_known = 0;
  vadapt::CapacityGraph planned(pool_hosts, config.default_bandwidth_bps, 0.01);
  vadapt::CapacityGraph truth_graph(pool_hosts, config.default_bandwidth_bps, 0.01);
  const wren::GlobalNetworkView& view = system.network_view();
  for (std::size_t ia = 0; ia < pool.size(); ++ia) {
    for (std::size_t ib = 0; ib < pool.size(); ++ib) {
      if (ia == ib) continue;
      const net::NodeId ha = bn.hosts[pool[ia]];
      const net::NodeId hb = bn.hosts[pool[ib]];
      if (const auto bw = view.bandwidth_bps(ha, hb)) {
        ++pool_pairs_known;
        planned.set_bandwidth(ia, ib, *bw);
      } else if (federated) {
        if (const auto agg = system.federation_root()->aggregate_bandwidth(ha, hb)) {
          planned.set_bandwidth(ia, ib, *agg);
        }
      }
      if (const auto lat = view.latency_seconds(ha, hb)) planned.set_latency(ia, ib, *lat);
      const auto [bw_true, lat_true] = truth(pool[ia], pool[ib]);
      truth_graph.set_bandwidth(ia, ib, bw_true);
      truth_graph.set_latency(ia, ib, lat_true);
    }
  }
  std::vector<vadapt::Demand> ring;
  for (std::size_t v = 0; v < kRingVms; ++v) ring.push_back({v, (v + 1) % kRingVms, 20e6});
  const vadapt::GreedyResult gr = vadapt::greedy_heuristic(planned, ring, kRingVms, {});
  const vadapt::Evaluation ev = vadapt::evaluate(truth_graph, ring, gr.configuration, {});
  res.cost = ev.cost;
  res.feasible = ev.feasible;

  if (want_metrics && system.metrics() != nullptr) {
    res.metrics_json = obs::metrics_json(system.metrics()->snapshot());
  }
  std::cerr << "fedscale n=" << n << (federated ? " federated(" : " flat(")
            << res.regions << " region(s)): root view bytes=" << res.root_view_bytes
            << " regional report bytes=" << res.regional_report_bytes
            << " root pairs=" << res.root_view_pairs << " pool known=" << pool_pairs_known
            << "/" << pool.size() * (pool.size() - 1) << " cost=" << res.cost / 1e6
            << (res.feasible ? "" : " INFEASIBLE") << "\n";
  return res;
}

// The serial oracle: one region, sampling off — the full federated path
// (RegionalProxy -> vw.fedsum.v1 binary codec -> hex armor -> FederationRoot)
// must reproduce the flat GlobalNetworkView bit-identically.
bool run_flat_identical_differential() {
  topo::BriteParams bp;
  bp.nodes = 64;
  RngService rngs(7);
  Rng gen = rngs.stream("feddiff.brite");
  const topo::BriteTopology brite(bp, gen);

  std::vector<net::NodeId> hosts;
  for (net::NodeId h = 100; h < 164; ++h) hosts.push_back(h);
  const wren::RegionMap rm = wren::RegionMap::round_robin(hosts, 1);
  wren::RegionalProxyParams pp;
  pp.summary_max_pairs = 0;  // sampling off
  wren::RegionalProxy proxy(0, rm, pp);
  wren::GlobalNetworkView flat;

  Rng pick = rngs.stream("feddiff.pairs");
  SimTime t = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    const auto i = static_cast<std::size_t>(pick.uniform_int(0, 63));
    const auto j = static_cast<std::size_t>(pick.uniform_int(0, 63));
    if (i == j) continue;
    const auto [bw, lat] = brite.path_metrics(i, j);
    t += millis(10);
    proxy.apply_report(hosts[i], {{hosts[j], bw, lat}}, t);
    flat.update_bandwidth(hosts[i], hosts[j], bw, t);
    flat.update_latency(hosts[i], hosts[j], lat, t);
  }

  const wren::FederationSummary summary = proxy.build_summary(t);
  const wren::FederationSummary shipped =
      wren::summary_from_hex(wren::summary_to_hex(summary));
  if (shipped != summary) {
    std::cerr << "fedscale: codec round-trip diverged\n";
    return false;
  }
  wren::GlobalNetworkView root_view;
  wren::FederationRoot root(root_view, rm);
  root.apply_summary(shipped, t);
  const bool identical = root_view.entries() == flat.entries();
  std::cerr << "fedscale differential: " << flat.entries().size() << " pairs, "
            << (identical ? "bit-identical" : "DIVERGED") << "\n";
  return identical;
}

std::string bool_json(bool b) { return b ? "true" : "false"; }

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_federation.json";
  std::string metrics_path;
  std::vector<std::size_t> sizes = {250, 1000};
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      // Toy fleets for a fast smoke: the traffic-ratio/scaling gates are
      // advisory there (the fixed summary budget dominates at 64 hosts);
      // only the serial-oracle and convergence gates still bind.
      quick = true;
      sizes = {64, 256};
    }
  }

  struct Row {
    RunResult flat, fed;
  };
  std::vector<Row> rows;
  for (const std::size_t n : sizes) {
    // Regions scale with the fleet (~125 daemons per regional proxy).
    const std::size_t regions = std::max<std::size_t>(2, n / 125);
    Row row;
    row.flat = run_scale(n, /*federated=*/false, 1, /*want_metrics=*/false);
    const bool want_metrics = n == sizes.back();
    row.fed = run_scale(n, /*federated=*/true, regions, want_metrics);
    rows.push_back(std::move(row));
  }

  const bool flat_identical = run_flat_identical_differential();

  // --- gates -----------------------------------------------------------------
  bool pass = flat_identical;
  double worst_ratio = 0, worst_gap = 0;
  for (const Row& row : rows) {
    const double ratio = row.flat.root_view_bytes > 0
                             ? static_cast<double>(row.fed.root_view_bytes) /
                                   static_cast<double>(row.flat.root_view_bytes)
                             : 1.0;
    worst_ratio = std::max(worst_ratio, ratio);
    const double gap =
        (row.flat.cost - row.fed.cost) / std::max(1.0, std::fabs(row.flat.cost));
    worst_gap = std::max(worst_gap, gap);
    if ((!quick && ratio > kRatioMax) || gap > kGapMax || !row.fed.feasible ||
        !row.flat.feasible || row.fed.root_view_pairs == 0) {
      pass = false;
    }
  }
  const RunResult& lo = rows.front().fed;
  const RunResult& hi = rows.back().fed;
  const double exponent =
      std::log(static_cast<double>(hi.root_view_bytes) /
               static_cast<double>(std::max<std::uint64_t>(1, lo.root_view_bytes))) /
      std::log(static_cast<double>(hi.n) / static_cast<double>(lo.n));
  if (!quick && exponent > kExponentMax) pass = false;

  std::ostringstream json;
  json << "{\n  \"suite\": \"federation\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const double ratio = static_cast<double>(row.fed.root_view_bytes) /
                         static_cast<double>(std::max<std::uint64_t>(1, row.flat.root_view_bytes));
    const double gap =
        (row.flat.cost - row.fed.cost) / std::max(1.0, std::fabs(row.flat.cost));
    json << "    {\"n\": " << row.flat.n << ", \"regions\": " << row.fed.regions
         << ", \"flat_root_bytes\": " << row.flat.root_view_bytes
         << ", \"fed_root_bytes\": " << row.fed.root_view_bytes
         << ", \"fed_regional_bytes\": " << row.fed.regional_report_bytes
         << ", \"ratio\": " << ratio << ", \"root_pairs_flat\": " << row.flat.root_view_pairs
         << ", \"root_pairs_fed\": " << row.fed.root_view_pairs
         << ", \"coverage\": " << row.fed.coverage << ", \"seq_gaps\": " << row.fed.seq_gaps
         << ", \"cost_flat\": " << row.flat.cost << ", \"cost_fed\": " << row.fed.cost
         << ", \"gap\": " << gap << ", \"feasible\": "
         << bool_json(row.fed.feasible && row.flat.feasible) << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"scaling_exponent\": " << exponent << ",\n"
       << "  \"flat_identical\": " << bool_json(flat_identical) << ",\n"
       << "  \"gates\": {\"ratio_max\": " << kRatioMax << ", \"worst_ratio\": " << worst_ratio
       << ", \"gap_max\": " << kGapMax << ", \"worst_gap\": " << worst_gap
       << ", \"exponent_max\": " << kExponentMax << ", \"pass\": " << bool_json(pass)
       << "}\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::cout << json.str();

  if (!metrics_path.empty()) {
    const std::string& dump = rows.back().fed.metrics_json;
    if (dump.empty()) {
      std::cerr << "fedscale: no metrics snapshot captured\n";
      return 1;
    }
    std::ofstream mout(metrics_path);
    mout << dump;
    std::cerr << "wrote " << metrics_path << "\n";
  }

  if (!pass) {
    std::cerr << "fedscale: GATE FAILURE (see " << out_path << ")\n";
    return 1;
  }
  std::cerr << "fedscale: all gates passed -> " << out_path << "\n";
  return 0;
}
