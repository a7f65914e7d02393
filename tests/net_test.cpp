// Unit tests for the physical network substrate: link serialization and
// propagation timing, drop-tail queueing (with a differential test against
// the two-event channel reference), routing (with a differential test
// against the all-node Dijkstra reference), taps, endpoint delay emulation
// and the SNMP-style link probe.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <sstream>
#include <string>

#include "net/network.hpp"
#include "net/probe.hpp"
#include "sim/simulator.hpp"
#include "topo/brite.hpp"
#include "util/rng.hpp"

namespace vw::net {
namespace {

Packet make_packet(NodeId src, NodeId dst, std::uint32_t payload) {
  Packet p;
  p.flow = FlowKey{src, dst, 1000, 2000, Protocol::kUdp};
  p.payload_bytes = payload;
  p.header_bytes = 40;
  return p;
}

struct TwoHosts {
  sim::Simulator sim;
  Network net{sim};
  NodeId a, b;

  explicit TwoHosts(const LinkConfig& cfg = {}) {
    a = net.add_host("a");
    b = net.add_host("b");
    net.add_link(a, b, cfg);
    net.compute_routes();
  }
};

TEST(NetworkTest, DeliveryTimeIsSerializationPlusPropagation) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = millis(2);
  TwoHosts env(cfg);
  SimTime delivered_at = -1;
  env.net.set_host_stack(env.b, [&](Packet&&) { delivered_at = env.sim.now(); });
  env.net.send(make_packet(env.a, env.b, 1210));  // 1250B on wire = 1ms at 10Mbps
  env.sim.run();
  EXPECT_EQ(delivered_at, millis(3));
}

TEST(NetworkTest, BackToBackPacketsQueue) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = 0;
  TwoHosts env(cfg);
  std::vector<SimTime> arrivals;
  env.net.set_host_stack(env.b, [&](Packet&&) { arrivals.push_back(env.sim.now()); });
  for (int i = 0; i < 3; ++i) env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], millis(1));
  EXPECT_EQ(arrivals[1], millis(2));
  EXPECT_EQ(arrivals[2], millis(3));
}

TEST(NetworkTest, DropTailWhenQueueFull) {
  LinkConfig cfg;
  cfg.bits_per_sec = 1e6;  // slow: queue builds instantly
  cfg.queue_limit_bytes = 3000;
  TwoHosts env(cfg);
  int delivered = 0;
  env.net.set_host_stack(env.b, [&](Packet&&) { ++delivered; });
  for (int i = 0; i < 10; ++i) env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  EXPECT_EQ(delivered, 2);  // 2 x 1250 fits in 3000, the rest dropped
  EXPECT_EQ(env.net.packets_dropped(), 8u);
}

TEST(NetworkTest, MultiHopRouting) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  const NodeId r1 = net.add_router("r1");
  const NodeId r2 = net.add_router("r2");
  const NodeId b = net.add_host("b");
  LinkConfig cfg;
  cfg.prop_delay = millis(1);
  net.add_link(a, r1, cfg);
  net.add_link(r1, r2, cfg);
  net.add_link(r2, b, cfg);
  net.compute_routes();

  EXPECT_EQ(net.next_hop(a, b), r1);
  EXPECT_EQ(net.next_hop(r1, b), r2);
  EXPECT_EQ(net.path_prop_delay(a, b), millis(3));

  bool got = false;
  net.set_host_stack(b, [&](Packet&& p) {
    got = true;
    EXPECT_EQ(p.flow.src, a);
  });
  net.send(make_packet(a, b, 100));
  sim.run();
  EXPECT_TRUE(got);
}

TEST(NetworkTest, RoutingPrefersLowerLatency) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  const NodeId fast = net.add_router("fast");
  const NodeId slow = net.add_router("slow");
  const NodeId b = net.add_host("b");
  LinkConfig fast_cfg;
  fast_cfg.prop_delay = millis(1);
  LinkConfig slow_cfg;
  slow_cfg.prop_delay = millis(10);
  net.add_link(a, fast, fast_cfg);
  net.add_link(fast, b, fast_cfg);
  net.add_link(a, slow, slow_cfg);
  net.add_link(slow, b, slow_cfg);
  net.compute_routes();
  EXPECT_EQ(net.next_hop(a, b), fast);
}

TEST(NetworkTest, PathBottleneck) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  const NodeId r = net.add_router("r");
  const NodeId b = net.add_host("b");
  LinkConfig wide;
  wide.bits_per_sec = 100e6;
  LinkConfig narrow;
  narrow.bits_per_sec = 10e6;
  net.add_link(a, r, wide);
  net.add_link(r, b, narrow);
  net.compute_routes();
  EXPECT_DOUBLE_EQ(net.path_bottleneck_bps(a, b), 10e6);
}

TEST(NetworkTest, OutgoingTapFiresAtSerializationCompletion) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = millis(5);
  TwoHosts env(cfg);
  SimTime tap_time = -1;
  env.net.add_host_tap(env.a, [&](const TapEvent& ev) {
    if (ev.direction == TapDirection::kOutgoing) tap_time = ev.timestamp;
  });
  env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  EXPECT_EQ(tap_time, millis(1));  // before propagation completes
}

TEST(NetworkTest, IncomingTapFiresAtDelivery) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = millis(5);
  TwoHosts env(cfg);
  SimTime tap_time = -1;
  env.net.add_host_tap(env.b, [&](const TapEvent& ev) {
    if (ev.direction == TapDirection::kIncoming) tap_time = ev.timestamp;
  });
  env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  EXPECT_EQ(tap_time, millis(6));
}

TEST(NetworkTest, RemovedTapStopsFiring) {
  TwoHosts env;
  int count = 0;
  const TapId id = env.net.add_host_tap(env.a, [&](const TapEvent&) { ++count; });
  env.net.send(make_packet(env.a, env.b, 100));
  env.sim.run();
  const int after_first = count;
  EXPECT_GT(after_first, 0);
  env.net.remove_host_tap(env.a, id);
  env.net.send(make_packet(env.a, env.b, 100));
  env.sim.run();
  EXPECT_EQ(count, after_first);
}

TEST(NetworkTest, EndpointDelayEmulation) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = 0;
  TwoHosts env(cfg);
  env.net.add_endpoint_delay(env.a, env.b, millis(25));
  SimTime delivered_at = -1;
  env.net.set_host_stack(env.b, [&](Packet&&) { delivered_at = env.sim.now(); });
  env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  EXPECT_EQ(delivered_at, millis(26));  // 1ms serialization + 25ms NistNet
}

TEST(NetworkTest, LoopbackDelivery) {
  TwoHosts env;
  bool got = false;
  env.net.set_host_stack(env.a, [&](Packet&& p) {
    got = true;
    EXPECT_EQ(p.flow.dst, env.a);
  });
  env.net.send(make_packet(env.a, env.a, 500));
  env.sim.run();
  EXPECT_TRUE(got);
}

TEST(NetworkTest, PacketIdsAreUnique) {
  TwoHosts env;
  std::vector<std::uint64_t> ids;
  env.net.set_host_stack(env.b, [&](Packet&& p) { ids.push_back(p.id); });
  for (int i = 0; i < 5; ++i) env.net.send(make_packet(env.a, env.b, 100));
  env.sim.run();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(NetworkTest, DuplicateLinkThrows) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");
  net.add_link(a, b, {});
  EXPECT_THROW(net.add_link(a, b, {}), std::invalid_argument);
  EXPECT_THROW(net.add_link(b, a, {}), std::invalid_argument);
}

TEST(NetworkTest, SelfLinkThrows) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  EXPECT_THROW(net.add_link(a, a, {}), std::invalid_argument);
}

TEST(NetworkTest, UnreachableDestinationDropsSilently) {
  sim::Simulator sim;
  Network net(sim);
  const NodeId a = net.add_host("a");
  const NodeId b = net.add_host("b");  // no link
  net.compute_routes();
  bool got = false;
  net.set_host_stack(b, [&](Packet&&) { got = true; });
  Packet p;
  p.flow = FlowKey{a, b, 1, 2, Protocol::kUdp};
  p.payload_bytes = 10;
  net.send(std::move(p));
  sim.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(net.path_prop_delay(a, b), -1);
  EXPECT_DOUBLE_EQ(net.path_bottleneck_bps(a, b), 0.0);
}

TEST(ChannelTest, CapacityChangeAffectsNewPackets) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = 0;
  TwoHosts env(cfg);
  std::vector<SimTime> arrivals;
  env.net.set_host_stack(env.b, [&](Packet&&) { arrivals.push_back(env.sim.now()); });
  env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  env.net.channel(env.a, env.b).set_capacity_bps(20e6);
  env.net.send(make_packet(env.a, env.b, 1210));
  env.sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], millis(1));
  EXPECT_EQ(arrivals[1] - arrivals[0], micros(500));
}

TEST(LinkProbeTest, MeasuresUtilizationAndAvailability) {
  LinkConfig cfg;
  cfg.bits_per_sec = 10e6;
  cfg.prop_delay = 0;
  TwoHosts env(cfg);
  LinkProbe probe(env.sim, env.net.channel(env.a, env.b), millis(100));

  // Send 50 packets of 1250B over the first 100ms: 0.5 Mbit in 0.1s = 5 Mbps.
  for (int i = 0; i < 50; ++i) {
    env.sim.schedule_at(i * millis(2), [&] { env.net.send(make_packet(env.a, env.b, 1210)); });
  }
  env.sim.run_until(millis(250));
  ASSERT_GE(probe.samples().size(), 2u);
  EXPECT_NEAR(probe.samples()[0].utilized_bps, 5e6, 0.6e6);
  EXPECT_NEAR(probe.samples()[0].available_bps, 5e6, 0.6e6);
  // Second interval: idle.
  EXPECT_NEAR(probe.samples()[1].available_bps, 10e6, 0.1e6);
}

TEST(LinkProbeTest, CurrentAvailableBeforeSamplesIsCapacity) {
  TwoHosts env;
  LinkProbe probe(env.sim, env.net.channel(env.a, env.b), seconds(1.0));
  EXPECT_DOUBLE_EQ(probe.current_available_bps(), env.net.channel(env.a, env.b).capacity_bps());
}

TEST(NetworkTest, NextHopOnUnknownNodeNamesTheIds) {
  TwoHosts env;
  try {
    (void)env.net.next_hop(env.a, 77);
    FAIL() << "next_hop accepted an unknown node";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dst=77"), std::string::npos) << e.what();
  }
  EXPECT_THROW((void)env.net.next_hop(9, env.b), std::invalid_argument);
  EXPECT_THROW((void)env.net.path_prop_delay(env.a, 9), std::invalid_argument);
}

// --- route differential: core routing vs the all-node reference -------------

using LinkMap = std::map<std::pair<NodeId, NodeId>, LinkConfig>;

// Reference oracle: a per-source Dijkstra over every node, leaves included,
// with the relaxation, first-hop rule and pop order that the core-only
// Network::compute_routes must reproduce exactly.
std::vector<std::vector<NodeId>> reference_next_hops(std::size_t n, const LinkMap& links) {
  constexpr SimTime kPerHopCost = micros(1);
  std::vector<std::vector<NodeId>> next_hop_(n, std::vector<NodeId>(n, kInvalidNode));

  // Adjacency lists from the channel map.
  std::vector<std::vector<std::pair<NodeId, SimTime>>> adj(n);
  for (const auto& [pair, cfg] : links) {
    adj[pair.first].push_back({pair.second, cfg.prop_delay + kPerHopCost});
  }

  // Dijkstra from every source; record the first hop of each shortest path.
  for (NodeId src = 0; src < n; ++src) {
    std::vector<SimTime> dist(n, std::numeric_limits<SimTime>::max());
    std::vector<NodeId> first_hop(n, kInvalidNode);
    using Item = std::pair<SimTime, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[src] = 0;
    pq.push({0, src});
    while (!pq.empty()) {
      auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (auto [v, w] : adj[u]) {
        const SimTime nd = d + w;
        if (nd < dist[v]) {
          dist[v] = nd;
          first_hop[v] = (u == src) ? v : first_hop[u];
          pq.push({nd, v});
        }
      }
    }
    next_hop_[src] = std::move(first_hop);
  }
  return next_hop_;
}

// A network plus the links it was built from, so the reference sees the
// same graph without reading the network's internals.
struct RouteCase {
  sim::Simulator sim;
  std::unique_ptr<Network> net = std::make_unique<Network>(sim);
  LinkMap links;  ///< both directions of every link
  std::set<std::pair<NodeId, NodeId>> down;

  void link(NodeId a, NodeId b, const LinkConfig& cfg) {
    net->add_link(a, b, cfg);
    links[{a, b}] = cfg;
    links[{b, a}] = cfg;
  }
  bool linked(NodeId a, NodeId b) const { return links.contains({a, b}); }
  void set_down(NodeId a, NodeId b) {
    net->set_link_down(a, b, true);
    down.insert({a, b});
    down.insert({b, a});
  }
};

// Computes routes, takes `down_links` random links down, and compares every
// ordered pair against the reference: next hop, and the delay, bottleneck
// and liveness of the path the reference routes.
void expect_routes_match_reference(RouteCase& rc, Rng& rng, std::size_t down_links) {
  rc.net->compute_routes();
  const std::size_t n = rc.net->node_count();
  std::vector<std::pair<NodeId, NodeId>> link_list;
  for (const auto& [pair, cfg] : rc.links) {
    if (pair.first < pair.second) link_list.push_back(pair);
  }
  for (std::size_t i = 0; i < down_links && !link_list.empty(); ++i) {
    const auto k = rng.uniform_int(0, static_cast<std::int64_t>(link_list.size()) - 1);
    const auto [a, b] = link_list[static_cast<std::size_t>(k)];
    rc.set_down(a, b);
  }
  for (const auto& [pair, cfg] : rc.links) {
    const Channel& ch = rc.net->channel(pair.first, pair.second);
    ASSERT_EQ(ch.from(), pair.first);
    ASSERT_EQ(ch.to(), pair.second);
  }

  const auto ref = reference_next_hops(n, rc.links);
  std::size_t mismatches = 0;
  std::ostringstream first;
  const auto mismatch = [&](NodeId a, NodeId b, const char* what, const auto& got,
                            const auto& want) {
    if (mismatches++ == 0) {
      first << what << "(" << a << ", " << b << "): got " << got << ", want " << want;
    }
  };
  std::size_t reachable_pairs = 0;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (rc.net->next_hop(a, b) != ref[a][b]) {
        mismatch(a, b, "next_hop", rc.net->next_hop(a, b), ref[a][b]);
      }
      SimTime delay = 0;
      double bottleneck = std::numeric_limits<double>::infinity();
      bool up = true;
      bool reachable = true;
      for (NodeId at = a; at != b;) {
        const NodeId nh = ref[at][b];
        if (nh == kInvalidNode) {
          reachable = false;
          break;
        }
        const LinkConfig& cfg = rc.links.at({at, nh});
        delay += cfg.prop_delay;
        bottleneck = std::min(bottleneck, cfg.bits_per_sec);
        up = up && !rc.down.contains({at, nh});
        at = nh;
      }
      if (reachable && a != b) ++reachable_pairs;
      const SimTime want_delay = reachable ? delay : -1;
      const double want_bottleneck = reachable ? bottleneck : 0.0;
      if (rc.net->path_prop_delay(a, b) != want_delay) {
        mismatch(a, b, "path_prop_delay", rc.net->path_prop_delay(a, b), want_delay);
      }
      if (rc.net->path_bottleneck_bps(a, b) != want_bottleneck) {
        mismatch(a, b, "path_bottleneck_bps", rc.net->path_bottleneck_bps(a, b), want_bottleneck);
      }
      if (rc.net->path_up(a, b) != (reachable && up)) {
        mismatch(a, b, "path_up", rc.net->path_up(a, b), reachable && up);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first.str();
  EXPECT_GT(reachable_pairs, 0u);
}

// A seeded random graph with every shape the leaf rule has to get right:
// a router mesh split into up to three components, single-link hosts,
// multi-homed hosts, hosts hanging off a multi-homed host, host-host pairs,
// host chains, isolated nodes, and link delays drawn from {0, 1, 2} us so
// equal-cost ties (across hop counts too) are common. Roles are shuffled
// before the nodes are added, so leaf and core ids interleave.
void build_random_graph(RouteCase& rc, Rng& rng) {
  enum class Role { kRouter, kLeafHost, kMultiHomed, kHostOnHost, kPair, kChain, kIsolated };
  const auto count = [&](int lo, int hi) { return static_cast<int>(rng.uniform_int(lo, hi)); };
  std::vector<Role> roles;
  const auto add_roles = [&](Role role, int k) { roles.insert(roles.end(), k, role); };
  add_roles(Role::kRouter, count(3, 24));
  add_roles(Role::kLeafHost, count(0, 30));
  add_roles(Role::kMultiHomed, count(0, 4));
  add_roles(Role::kHostOnHost, count(0, 3));
  add_roles(Role::kPair, 2 * count(0, 2));
  add_roles(Role::kChain, 3 * count(0, 1));
  add_roles(Role::kIsolated, count(0, 2));
  std::shuffle(roles.begin(), roles.end(), rng.engine());

  std::map<Role, std::vector<NodeId>> by_role;
  for (const Role role : roles) {
    const bool host = role != Role::kRouter;
    const std::string name = (host ? "h" : "r") + std::to_string(rc.net->node_count());
    const NodeId id = rc.net->add_node(name, host);
    by_role[role].push_back(id);
  }
  const auto config = [&] {
    LinkConfig cfg;
    cfg.bits_per_sec = 1e6 * static_cast<double>(rng.uniform_int(1, 8));
    cfg.prop_delay = micros(rng.uniform_int(0, 2));
    return cfg;
  };
  const auto pick = [&](const std::vector<NodeId>& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  };

  // Router components: a random spanning tree each (so some routers are
  // leaves themselves), plus extra mesh links.
  const std::vector<NodeId>& routers = by_role[Role::kRouter];
  const std::size_t components = static_cast<std::size_t>(count(1, 3));
  std::vector<std::vector<NodeId>> comp(components);
  for (std::size_t i = 0; i < routers.size(); ++i) comp[i % components].push_back(routers[i]);
  for (const auto& c : comp) {
    for (std::size_t i = 1; i < c.size(); ++i) {
      const auto parent = rng.uniform_int(0, static_cast<std::int64_t>(i) - 1);
      rc.link(c[i], c[static_cast<std::size_t>(parent)], config());
    }
    for (std::size_t extra = c.size() / 2; extra > 0 && c.size() > 2; --extra) {
      const NodeId a = pick(c);
      const NodeId b = pick(c);
      if (a != b && !rc.linked(a, b)) rc.link(a, b, config());
    }
  }
  for (const NodeId h : by_role[Role::kLeafHost]) rc.link(h, pick(routers), config());
  for (const NodeId h : by_role[Role::kMultiHomed]) {
    for (int k = count(2, 3); k > 0; --k) {
      const NodeId r = pick(routers);
      if (!rc.linked(h, r)) rc.link(h, r, config());
    }
  }
  for (const NodeId h : by_role[Role::kHostOnHost]) {
    const auto& multi = by_role[Role::kMultiHomed];
    rc.link(h, multi.empty() ? pick(routers) : pick(multi), config());
  }
  const auto& pairs = by_role[Role::kPair];
  for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) rc.link(pairs[i], pairs[i + 1], config());
  const auto& chain = by_role[Role::kChain];
  for (std::size_t i = 0; i + 2 < chain.size(); i += 3) {
    rc.link(chain[i], chain[i + 1], config());
    rc.link(chain[i + 1], chain[i + 2], config());
  }
}

TEST(RouteDifferentialTest, RandomGraphsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    RouteCase rc;
    build_random_graph(rc, rng);
    expect_routes_match_reference(rc, rng, static_cast<std::size_t>(rng.uniform_int(0, 3)));
  }
}

TEST(RouteDifferentialTest, EqualDelayTiesMatchReference) {
  // Two routers joined by two equal-delay two-hop paths and a direct link
  // of the same total cost: every tie-break the reference makes must hold.
  RouteCase rc;
  LinkConfig cfg;
  cfg.prop_delay = micros(1);
  LinkConfig direct;
  direct.prop_delay = micros(3);
  const NodeId h0 = rc.net->add_host("h0");
  const NodeId r0 = rc.net->add_router("r0");
  const NodeId m1 = rc.net->add_router("m1");
  const NodeId h1 = rc.net->add_host("h1");
  const NodeId m2 = rc.net->add_router("m2");
  const NodeId r1 = rc.net->add_router("r1");
  rc.link(h0, r0, cfg);
  rc.link(r0, m1, cfg);
  rc.link(m1, r1, cfg);
  rc.link(r0, m2, cfg);
  rc.link(m2, r1, cfg);
  rc.link(r0, r1, direct);
  rc.link(h1, r1, cfg);
  Rng rng(3);
  expect_routes_match_reference(rc, rng, 0);
}

TEST(RouteDifferentialTest, BriteFleetShapeMatchesReference) {
  // The fig11 shape: 256 BRITE routers, 128 single-link hosts on distinct
  // routers, built by topo::make_brite_network itself. The reference reads
  // each link's configuration back through the public channel().
  topo::BriteParams params;
  params.nodes = 256;
  params.out_degree = 2;
  const topo::BriteTopology brite(params, RngService(99).stream("fig11.brite"));
  RouteCase rc;
  Rng place = RngService(4242).stream("brite_fleet.hosts");
  topo::BriteNetwork bn = topo::make_brite_network(rc.sim, brite, 128, place);
  rc.net = std::move(bn.network);
  const auto record = [&](NodeId a, NodeId b) {
    for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
      const Channel& ch = rc.net->channel(from, to);
      rc.links[{from, to}] = {ch.capacity_bps(), ch.prop_delay(), 256 * 1024};
    }
  };
  for (const topo::BriteEdge& e : brite.edges()) record(bn.routers[e.a], bn.routers[e.b]);
  for (std::size_t i = 0; i < bn.hosts.size(); ++i) {
    record(bn.hosts[i], bn.routers[bn.host_router[i]]);
  }
  ASSERT_EQ(rc.links.size(), 2 * (brite.edges().size() + bn.hosts.size()));
  Rng rng(11);
  expect_routes_match_reference(rc, rng, 4);
}

// --- channel differential: analytic queue vs the two-event reference -------

// Reference oracle: the drop-tail channel with two events per packet-hop, a
// serialization-completion event and then a propagation event carrying the
// packet. net::Channel computes departures instead and must reproduce every
// departure, arrival, drop and counter of it.
class ReferenceChannel {
 public:
  using SerializedFn = std::function<void(Packet&, SimTime)>;
  using DeliveredFn = std::function<void(Packet&&)>;

  ReferenceChannel(sim::Simulator& sim, ChannelId, NodeId, NodeId, double bits_per_sec,
                   SimTime prop_delay, std::int64_t queue_limit_bytes)
      : sim_(sim),
        bits_per_sec_(bits_per_sec),
        prop_delay_(prop_delay),
        queue_limit_bytes_(queue_limit_bytes) {}

  const ChannelStats& stats() const { return stats_; }
  void set_capacity_bps(double bps) { bits_per_sec_ = bps; }
  void set_on_serialized(SerializedFn fn) { on_serialized_ = std::move(fn); }
  void set_on_delivered(DeliveredFn fn) { on_delivered_ = std::move(fn); }

  void set_down(bool down) {
    down_ = down;
    if (!down) return;
    stats_.packets_down_dropped += queue_.size();
    queue_.clear();
    backlog_bytes_ = 0;
    if (serving_) {
      sim_.cancel(service_event_);
      serving_ = false;
    }
  }

  bool enqueue(Packet pkt) {
    if (down_) {
      ++stats_.packets_down_dropped;
      return false;
    }
    const std::int64_t size = pkt.size_bytes();
    if (backlog_bytes_ + size > queue_limit_bytes_) {
      ++stats_.packets_dropped;
      return false;
    }
    backlog_bytes_ += size;
    ++stats_.packets_sent;
    queue_.push_back(std::move(pkt));
    if (!serving_) start_service();
    return true;
  }

 private:
  void start_service() {
    serving_ = true;
    const SimTime done = sim_.now() + transmission_time(queue_.front().size_bytes(), bits_per_sec_);
    service_event_ = sim_.schedule_at(done, [this] { finish_service(); });
  }

  void finish_service() {
    Packet pkt = std::move(queue_.front());
    queue_.pop_front();
    const std::int64_t size = pkt.size_bytes();
    backlog_bytes_ -= size;
    stats_.bytes_serialized += static_cast<std::uint64_t>(size);
    if (on_serialized_) on_serialized_(pkt, sim_.now());
    if (prop_delay_ == 0) {
      if (on_delivered_) on_delivered_(std::move(pkt));
    } else {
      sim_.schedule_in(prop_delay_, [this, pkt = std::move(pkt)]() mutable {
        if (on_delivered_) on_delivered_(std::move(pkt));
      });
    }
    serving_ = false;
    if (!queue_.empty()) start_service();
  }

  sim::Simulator& sim_;
  double bits_per_sec_;
  SimTime prop_delay_;
  std::int64_t queue_limit_bytes_;
  std::int64_t backlog_bytes_ = 0;
  std::deque<Packet> queue_;
  bool serving_ = false;
  sim::EventHandle service_event_;
  bool down_ = false;
  ChannelStats stats_;
  SerializedFn on_serialized_;
  DeliveredFn on_delivered_;
};

struct ChannelStep {
  enum class Kind { kEnqueue, kDown, kUp, kCapacity, kProbe };
  Kind kind = Kind::kProbe;
  SimTime at = 0;
  std::uint32_t bytes = 0;  ///< kEnqueue: wire size
  double value = 0;         ///< kCapacity: bits/s
};

struct ChannelScript {
  double bits_per_sec = 10e6;
  SimTime prop_delay = 0;
  std::int64_t queue_limit_bytes = 16'000;
  std::vector<ChannelStep> steps;
};

// One channel driven by a script, with everything observable about it
// logged: (packet id, time) at each departure and each arrival, and each
// admission verdict.
template <class C>
struct ChannelRun {
  sim::Simulator sim;
  C channel;
  std::vector<std::pair<std::uint64_t, SimTime>> serialized;
  std::vector<std::pair<std::uint64_t, SimTime>> delivered;
  std::vector<bool> admitted;

  explicit ChannelRun(const ChannelScript& script)
      : channel(sim, 0, 0, 1, script.bits_per_sec, script.prop_delay, script.queue_limit_bytes) {
    channel.set_on_serialized(
        [this](Packet& pkt, SimTime t) { serialized.emplace_back(pkt.id, t); });
    channel.set_on_delivered([this](Packet&& pkt) { delivered.emplace_back(pkt.id, sim.now()); });
  }

  // Steps run between events, after every event at or before their time:
  // a departure at the step's instant has happened.
  void apply(const ChannelStep& step, std::uint64_t id) {
    sim.run_until(step.at);
    switch (step.kind) {
      case ChannelStep::Kind::kEnqueue: {
        Packet pkt;
        pkt.flow = FlowKey{0, 1, 1000, 2000, Protocol::kUdp};
        pkt.header_bytes = 40;
        pkt.payload_bytes = step.bytes - 40;
        pkt.id = id;
        admitted.push_back(channel.enqueue(std::move(pkt)));
        break;
      }
      case ChannelStep::Kind::kDown:
        channel.set_down(true);
        break;
      case ChannelStep::Kind::kUp:
        channel.set_down(false);
        break;
      case ChannelStep::Kind::kCapacity:
        channel.set_capacity_bps(step.value);
        break;
      case ChannelStep::Kind::kProbe:
        break;
    }
  }
};

void expect_same_stats(const ChannelStats& want, const ChannelStats& got) {
  EXPECT_EQ(got.packets_sent, want.packets_sent);
  EXPECT_EQ(got.packets_dropped, want.packets_dropped);
  EXPECT_EQ(got.packets_lost, want.packets_lost);
  EXPECT_EQ(got.packets_down_dropped, want.packets_down_dropped);
  EXPECT_EQ(got.bytes_serialized, want.bytes_serialized);
}

/// Runs `script` on both channels; counters must agree after every step
/// and the departure, arrival and admission logs at the end. Returns the
/// reference's final counters.
ChannelStats expect_channel_matches_reference(const ChannelScript& script) {
  ChannelRun<ReferenceChannel> want(script);
  ChannelRun<Channel> got(script);
  for (std::size_t i = 0; i < script.steps.size(); ++i) {
    want.apply(script.steps[i], i);
    got.apply(script.steps[i], i);
    SCOPED_TRACE("step " + std::to_string(i) + " at " + std::to_string(script.steps[i].at));
    expect_same_stats(want.channel.stats(), got.channel.stats());
    if (::testing::Test::HasFailure()) return want.channel.stats();
  }
  want.sim.run();
  got.sim.run();
  expect_same_stats(want.channel.stats(), got.channel.stats());
  EXPECT_EQ(got.admitted, want.admitted);
  EXPECT_EQ(got.serialized, want.serialized);
  EXPECT_EQ(got.delivered, want.delivered);
  return want.channel.stats();
}

ChannelScript random_channel_script(Rng& rng) {
  const double rates[] = {1e6, 10e6, 100e6};
  ChannelScript script;
  script.bits_per_sec = rates[rng.uniform_int(0, 2)];
  script.prop_delay = rng.chance(0.5) ? 0 : micros(rng.uniform_int(1, 500));
  script.queue_limit_bytes = rng.uniform_int(3, 24) * 1000;
  double rate = script.bits_per_sec;
  bool down = false;
  SimTime at = 0;
  for (int i = 0; i < 600; ++i) {
    // Gaps are whole byte times at the current rate, so steps often land on
    // a departure instant; a quarter of the steps share the previous
    // step's nanosecond.
    if (!rng.chance(0.25)) at += transmission_time(rng.uniform_int(1, 1200), rate);
    ChannelStep step;
    step.at = at;
    const double pick = rng.uniform(0, 1);
    if (pick < 0.83) {
      step.kind = ChannelStep::Kind::kEnqueue;
      step.bytes = rng.chance(0.3) ? 40 : static_cast<std::uint32_t>(rng.uniform_int(40, 1500));
    } else if (pick < 0.88) {
      step.kind = ChannelStep::Kind::kCapacity;
      rate = step.value = rates[rng.uniform_int(0, 2)];
    } else if (pick < 0.92) {
      step.kind = down ? ChannelStep::Kind::kUp : ChannelStep::Kind::kDown;
      down = !down;
    }
    script.steps.push_back(step);
  }
  return script;
}

TEST(ChannelDifferentialTest, RandomScriptsMatchReference) {
  ChannelStats seen;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const ChannelStats stats = expect_channel_matches_reference(random_channel_script(rng));
    if (HasFailure()) return;
    seen.packets_dropped += stats.packets_dropped;
    seen.packets_down_dropped += stats.packets_down_dropped;
  }
  // The scripts reach every path: overflow and outage.
  EXPECT_GT(seen.packets_dropped, 100u);
  EXPECT_GT(seen.packets_down_dropped, 100u);
}

TEST(ChannelDifferentialTest, DownAtADepartureInstant) {
  // Three 1000 B packets at 10 Mb/s (800 us each): the first departs at
  // exactly 800 us, when the link goes down, so it is in propagation and
  // arrives; the other two are dropped.
  using Kind = ChannelStep::Kind;
  for (const SimTime prop : {SimTime{0}, millis(1)}) {
    SCOPED_TRACE("prop " + std::to_string(prop));
    ChannelScript script;
    script.prop_delay = prop;
    for (int i = 0; i < 3; ++i) script.steps.push_back({.kind = Kind::kEnqueue, .bytes = 1000});
    script.steps.push_back({.kind = Kind::kDown, .at = micros(800)});
    script.steps.push_back({.kind = Kind::kUp, .at = micros(900)});
    script.steps.push_back({.kind = Kind::kEnqueue, .at = micros(900), .bytes = 1000});
    expect_channel_matches_reference(script);
    ChannelRun<Channel> run(script);
    for (std::size_t i = 0; i < script.steps.size(); ++i) run.apply(script.steps[i], i);
    run.sim.run();
    EXPECT_EQ(run.channel.stats().packets_down_dropped, 2u);
    const std::vector<std::pair<std::uint64_t, SimTime>> arrivals{
        {0, micros(800) + prop}, {5, micros(1700) + prop}};
    EXPECT_EQ(run.delivered, arrivals);
  }
}

TEST(ChannelDifferentialTest, CapacityChangeWhileAPacketSerializes) {
  // Two 1250 B packets at 10 Mb/s (1 ms each); at 0.25 ms the rate doubles.
  // The first keeps its 1 ms departure; the second, not yet started,
  // serializes at 20 Mb/s and departs at 1.5 ms. A packet admitted at the
  // first departure instant queues behind the packet that starts then.
  using Kind = ChannelStep::Kind;
  ChannelScript script;
  script.prop_delay = micros(100);
  script.steps = {
      {.kind = Kind::kEnqueue, .bytes = 1250},
      {.kind = Kind::kEnqueue, .bytes = 1250},
      {.kind = Kind::kCapacity, .at = micros(250), .value = 20e6},
      {.kind = Kind::kEnqueue, .at = millis(1), .bytes = 1250},
  };
  expect_channel_matches_reference(script);
  ChannelRun<Channel> run(script);
  for (std::size_t i = 0; i < script.steps.size(); ++i) run.apply(script.steps[i], i);
  run.sim.run();
  const std::vector<std::pair<std::uint64_t, SimTime>> departures{
      {0, millis(1)}, {1, micros(1500)}, {3, millis(2)}};
  EXPECT_EQ(run.serialized, departures);
}

}  // namespace
}  // namespace vw::net
