#include "net/network.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/check.hpp"

namespace vw::net {

namespace {
// Routing weight: propagation delay plus a small per-hop cost so equal-delay
// alternatives prefer fewer hops and ties break deterministically.
constexpr SimTime kPerHopCost = micros(1);
}  // namespace

Network::Network(sim::Simulator& sim) : sim_(sim) {}

NodeId Network::add_node(std::string name, bool is_host) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeInfo{std::move(name), is_host});
  host_stacks_.emplace_back();
  taps_.emplace_back();
  routes_valid_ = false;
  return id;
}

void Network::add_link(NodeId a, NodeId b, const LinkConfig& config) {
  VW_REQUIRE(a < nodes_.size() && b < nodes_.size(), "add_link: bad node (", a, ", ", b, ")");
  VW_REQUIRE(a != b, "add_link: self link on node ", a);
  VW_REQUIRE(!has_channel(a, b), "add_link: duplicate link ", a, " <-> ", b);
  for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    auto ch = std::make_unique<Channel>(sim_, static_cast<ChannelId>(channels_.size()), from, to,
                                        config.bits_per_sec, config.prop_delay,
                                        config.queue_limit_bytes);
    Channel* raw = ch.get();
    raw->set_on_serialized([this, from](Packet& pkt, SimTime t) {
      // Outgoing tap at the source host only: fires when the packet has
      // fully serialized onto the host's own access link (what a kernel
      // trace with NIC-level timestamps observes). Downstream hops must not
      // re-fire the tap or re-stamp the wire time.
      if (pkt.flow.src == from) {
        pkt.wire_time = t;
        fire_taps(pkt.flow.src, TapDirection::kOutgoing, t, pkt);
      }
    });
    raw->set_on_delivered([this, to](Packet&& pkt) { handle_arrival(std::move(pkt), to); });
    channel_by_pair_[{from, to}] = raw;
    channels_.push_back(std::move(ch));
  }
  routes_valid_ = false;
}

Channel* Network::find_channel(NodeId from, NodeId to) const {
  const auto it = channel_by_pair_.find({from, to});
  return it == channel_by_pair_.end() ? nullptr : it->second;
}

Channel& Network::channel(NodeId from, NodeId to) {
  Channel* ch = find_channel(from, to);
  if (ch == nullptr) throw std::out_of_range("channel: no such link");
  return *ch;
}

const Channel& Network::channel(NodeId from, NodeId to) const {
  const Channel* ch = find_channel(from, to);
  if (ch == nullptr) throw std::out_of_range("channel: no such link");
  return *ch;
}

bool Network::has_channel(NodeId from, NodeId to) const {
  return find_channel(from, to) != nullptr;
}

// Routing runs Dijkstra from every core node over the core only. A leaf L
// with neighbour P changes nothing by its absence: its one in-edge comes
// from P, so L is reached only when P settles, with dist[P] + w; popping L
// would relax only L -> P, at a cost above dist[P] because every weight is
// at least kPerHopCost. So a leaf is never interior to a shortest path,
// relaxes nothing, and the core nodes settle in the same (dist, node) order
// with the same first hops as in a Dijkstra over all nodes. A leaf's routes
// follow: from L, every node P reaches is reached through L's uplink; toward
// L, the first hop is the first hop toward P, or the down-link from P.
void Network::compute_routes() {
  const std::size_t n = nodes_.size();
  // CSR adjacency. channel_by_pair_ is ordered by (from, to), so each row
  // is contiguous and sorted by neighbour.
  std::vector<std::uint32_t> adj_start(n + 1, 0);
  std::vector<ChannelId> adj;
  adj.reserve(channel_by_pair_.size());
  for (const auto& [pair, ch] : channel_by_pair_) {
    ++adj_start[pair.first + 1];
    adj.push_back(ch->id());
  }
  for (std::size_t u = 0; u < n; ++u) adj_start[u + 1] += adj_start[u];
  const auto degree = [&](NodeId u) { return adj_start[u + 1] - adj_start[u]; };

  // Leaves: one link, to a node with more than one. Core indices follow node
  // order, so (dist, core index) pops in the same order as (dist, node).
  uplink_.assign(n, kNoChannel);
  for (NodeId u = 0; u < n; ++u) {
    if (degree(u) != 1) continue;
    const Channel& up = *channels_[adj[adj_start[u]]];
    if (degree(up.to()) == 1) continue;
    // first_hop takes the down-link to a leaf as its uplink's id ^ 1.
    const ChannelId down = up.id() ^ 1u;
    VW_ASSERT(down < channels_.size() && channels_[down]->from() == up.to() &&
                  channels_[down]->to() == u,
              "Network::compute_routes: channel ", down, " is not the down-link ", up.to(),
              " -> ", u);
    uplink_[u] = up.id();
  }
  core_of_.assign(n, 0);
  std::vector<NodeId> core_nodes;
  for (NodeId u = 0; u < n; ++u) {
    if (uplink_[u] != kNoChannel) continue;
    core_of_[u] = static_cast<std::uint32_t>(core_nodes.size());
    core_nodes.push_back(u);
  }
  for (NodeId u = 0; u < n; ++u) {
    if (uplink_[u] != kNoChannel) core_of_[u] = core_of_[channels_[uplink_[u]]->to()];
  }
  core_count_ = core_nodes.size();

  // Core-to-core edges, in the same row order.
  struct CoreEdge {
    SimTime weight;
    std::uint32_t to;
    ChannelId channel;
  };
  std::vector<std::uint32_t> core_start(core_count_ + 1, 0);
  std::vector<CoreEdge> core_edges;
  for (std::size_t c = 0; c < core_count_; ++c) {
    const NodeId u = core_nodes[c];
    for (std::uint32_t k = adj_start[u]; k < adj_start[u + 1]; ++k) {
      const Channel& ch = *channels_[adj[k]];
      if (uplink_[ch.to()] != kNoChannel) continue;
      core_edges.push_back({ch.prop_delay() + kPerHopCost, core_of_[ch.to()], ch.id()});
    }
    core_start[c + 1] = static_cast<std::uint32_t>(core_edges.size());
  }

  // Dijkstra from every core source; record the first-hop channel of each
  // shortest path straight into the source's row.
  route_.assign(core_count_ * core_count_, kNoChannel);
  std::vector<SimTime> dist(core_count_);
  using Item = std::pair<SimTime, std::uint32_t>;
  std::vector<Item> heap;
  for (std::uint32_t src = 0; src < core_count_; ++src) {
    ChannelId* first = route_.data() + static_cast<std::size_t>(src) * core_count_;
    std::fill(dist.begin(), dist.end(), std::numeric_limits<SimTime>::max());
    dist[src] = 0;
    heap.assign(1, {0, src});
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const auto [d, u] = heap.back();
      heap.pop_back();
      if (d > dist[u]) continue;
      for (std::uint32_t k = core_start[u]; k < core_start[u + 1]; ++k) {
        const CoreEdge& e = core_edges[k];
        const SimTime nd = d + e.weight;
        if (nd < dist[e.to]) {
          dist[e.to] = nd;
          first[e.to] = (u == src) ? e.channel : first[u];
          heap.push_back({nd, e.to});
          std::push_heap(heap.begin(), heap.end(), std::greater<>{});
        }
      }
    }
  }
  routes_valid_ = true;
}

ChannelId Network::first_hop(NodeId at, NodeId dst) const {
  VW_REQUIRE(routes_valid_, "Network: routes not computed before next_hop lookup");
  if (at == dst) return kNoChannel;
  const std::uint32_t from = core_of_[at];
  const std::uint32_t to = core_of_[dst];
  if (uplink_[at] != kNoChannel) {
    // A leaf reaches its neighbour, its neighbour's other leaves and
    // whatever its neighbour routes to, all through its uplink.
    return from == to || route_[from * core_count_ + to] != kNoChannel ? uplink_[at]
                                                                        : kNoChannel;
  }
  // `dst` is a leaf of `at`: the final down-link. add_link creates a link's
  // two channels back to back, so a channel's reverse is its id ^ 1
  // (compute_routes asserts it for every leaf).
  if (from == to) return uplink_[dst] ^ 1u;
  return route_[from * core_count_ + to];
}

NodeId Network::next_hop(NodeId at, NodeId dst) const {
  VW_REQUIRE(at < nodes_.size() && dst < nodes_.size(), "Network::next_hop: unknown node (at=",
             at, " dst=", dst, ", ", nodes_.size(), " nodes)");
  const ChannelId c = first_hop(at, dst);
  return c == kNoChannel ? kInvalidNode : channels_[c]->to();
}

template <typename Fn>
bool Network::for_each_hop(NodeId a, NodeId b, Fn&& fn) const {
  VW_REQUIRE(a < nodes_.size() && b < nodes_.size(), "Network: path query on unknown node (a=", a,
             " b=", b, ", ", nodes_.size(), " nodes)");
  for (NodeId at = a; at != b;) {
    const ChannelId c = first_hop(at, b);
    if (c == kNoChannel) return false;
    const Channel& ch = *channels_[c];
    fn(ch);
    at = ch.to();
  }
  return true;
}

SimTime Network::path_prop_delay(NodeId a, NodeId b) const {
  SimTime total = 0;
  const bool reachable = for_each_hop(a, b, [&](const Channel& ch) { total += ch.prop_delay(); });
  return reachable ? total : -1;
}

double Network::path_bottleneck_bps(NodeId a, NodeId b) const {
  double bottleneck = std::numeric_limits<double>::infinity();
  const bool reachable = for_each_hop(
      a, b, [&](const Channel& ch) { bottleneck = std::min(bottleneck, ch.capacity_bps()); });
  return reachable ? bottleneck : 0.0;
}

bool Network::path_up(NodeId a, NodeId b) const {
  bool up = true;
  const bool reachable = for_each_hop(a, b, [&](const Channel& ch) { up = up && !ch.is_down(); });
  return reachable && up;
}

void Network::send(Packet pkt) {
  VW_REQUIRE(pkt.flow.src < nodes_.size() && pkt.flow.dst < nodes_.size(),
             "Network::send: bad endpoint (src=", pkt.flow.src, " dst=", pkt.flow.dst, ")");
  pkt.id = next_packet_id_++;
  pkt.send_time = sim_.now();
  if (pkt.flow.src == pkt.flow.dst) {
    // Loopback: deliver asynchronously to preserve event ordering semantics.
    sim_.schedule_in(0, [this, pkt = std::move(pkt)]() mutable {
      pkt.wire_time = sim_.now();
      tap_now(pkt.flow.src, TapDirection::kOutgoing, pkt);
      deliver_to_host(std::move(pkt));
    });
    return;
  }
  forward(std::move(pkt), pkt.flow.src);
}

void Network::forward(Packet&& pkt, NodeId at) {
  const ChannelId c = first_hop(at, pkt.flow.dst);
  if (c == kNoChannel) return;  // unreachable: silently dropped (like IP)
  channels_[c]->enqueue(std::move(pkt));
}

void Network::handle_arrival(Packet&& pkt, NodeId at) {
  if (at == pkt.flow.dst) {
    // Endpoint-delay emulation is the exception, not the rule: skip the map
    // probe entirely on topologies that never configured one.
    if (!endpoint_delays_.empty()) {
      const auto it = endpoint_delays_.find({pkt.flow.src, pkt.flow.dst});
      if (it != endpoint_delays_.end() && it->second > 0) {
        sim_.schedule_in(it->second, [this, pkt = std::move(pkt)]() mutable {
          deliver_to_host(std::move(pkt));
        });
        return;
      }
    }
    deliver_to_host(std::move(pkt));
    return;
  }
  forward(std::move(pkt), at);
}

void Network::deliver_to_host(Packet&& pkt) {
  ++packets_delivered_;
  tap_now(pkt.flow.dst, TapDirection::kIncoming, pkt);
  auto& stack = host_stacks_[pkt.flow.dst];
  if (stack) stack(std::move(pkt));
}

void Network::set_host_stack(NodeId host, HostStackFn stack) {
  host_stacks_.at(host) = std::move(stack);
}

TapId Network::add_host_tap(NodeId host, TapFn fn) {
  const TapId id = next_tap_id_++;
  taps_.at(host).push_back({id, std::move(fn)});
  return id;
}

void Network::remove_host_tap(NodeId host, TapId id) {
  auto& list = taps_.at(host);
  std::erase_if(list, [id](const auto& entry) { return entry.first == id; });
}

void Network::settle_host(NodeId host) {
  if (routes_valid_ && uplink_[host] != kNoChannel) {
    channels_[uplink_[host]]->settle();
    return;
  }
  // A core host may have several links: settle them in departure order so
  // its outgoing records stay in time order across links.
  const auto first = channel_by_pair_.lower_bound({host, NodeId{0}});
  for (;;) {
    Channel* next = nullptr;
    for (auto it = first; it != channel_by_pair_.end() && it->first.first == host; ++it) {
      if (next == nullptr || it->second->next_departure() < next->next_departure()) {
        next = it->second;
      }
    }
    if (next == nullptr || next->next_departure() > sim_.now()) return;
    next->settle(next->next_departure());
  }
}

void Network::tap_now(NodeId host, TapDirection dir, const Packet& pkt) {
  if (taps_[host].empty()) return;
  // Every packet the host finished sending by now reaches its taps first.
  settle_host(host);
  fire_taps(host, dir, sim_.now(), pkt);
}

void Network::fire_taps(NodeId host, TapDirection dir, SimTime t, const Packet& pkt) {
  auto& list = taps_[host];
  if (list.empty()) return;
  // One event object shared across the host's taps — no per-tap re-wrapping.
  const TapEvent ev{dir, t, &pkt};
  for (auto& [id, fn] : list) {
    fn(ev);
  }
}

void Network::add_endpoint_delay(NodeId a, NodeId b, SimTime one_way, bool bidirectional) {
  endpoint_delays_[{a, b}] = one_way;
  if (bidirectional) endpoint_delays_[{b, a}] = one_way;
}

void Network::set_link_down(NodeId a, NodeId b, bool down) {
  channel(a, b).set_down(down);
  channel(b, a).set_down(down);
}

void Network::set_link_loss(NodeId a, NodeId b, double p, const RngService& rngs) {
  channel(a, b).set_loss(p, rngs.stream("loss." + std::to_string(a) + "." + std::to_string(b)));
  channel(b, a).set_loss(p, rngs.stream("loss." + std::to_string(b) + "." + std::to_string(a)));
}

std::uint64_t Network::packets_dropped() const {
  std::uint64_t total = 0;
  for (const auto& ch : channels_) total += ch->stats().packets_dropped;
  return total;
}

}  // namespace vw::net
