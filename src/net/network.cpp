#include "net/network.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "util/check.hpp"
#include "util/log.hpp"

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
  channel_index_valid_ = false;  // stride changes with the node count
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
  channel_index_valid_ = false;
}

void Network::rebuild_channel_index() {
  index_stride_ = nodes_.size();
  channel_index_.assign(index_stride_ * index_stride_, nullptr);
  for (const auto& [pair, ch] : channel_by_pair_) {
    channel_index_[static_cast<std::size_t>(pair.first) * index_stride_ + pair.second] = ch;
  }
  channel_index_valid_ = true;
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

void Network::compute_routes() {
  const std::size_t n = nodes_.size();
  next_hop_.assign(n, std::vector<NodeId>(n, kInvalidNode));

  // Adjacency lists from the channel map.
  std::vector<std::vector<std::pair<NodeId, SimTime>>> adj(n);
  for (const auto& [pair, ch] : channel_by_pair_) {
    adj[pair.first].push_back({pair.second, ch->prop_delay() + kPerHopCost});
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
  routes_valid_ = true;
  // The dense index shares the routing tables' lifecycle: packets only flow
  // after compute_routes, so the hot path always sees a valid index.
  rebuild_channel_index();
}

NodeId Network::next_hop(NodeId at, NodeId dst) const {
  VW_REQUIRE(routes_valid_, "Network: routes not computed before next_hop lookup");
  return next_hop_.at(at).at(dst);
}

SimTime Network::path_prop_delay(NodeId a, NodeId b) const {
  if (a == b) return 0;
  SimTime total = 0;
  NodeId at = a;
  while (at != b) {
    const NodeId nh = next_hop(at, b);
    if (nh == kInvalidNode) return -1;
    total += channel(at, nh).prop_delay();
    at = nh;
  }
  return total;
}

double Network::path_bottleneck_bps(NodeId a, NodeId b) const {
  if (a == b) return std::numeric_limits<double>::infinity();
  double bottleneck = std::numeric_limits<double>::infinity();
  NodeId at = a;
  while (at != b) {
    const NodeId nh = next_hop(at, b);
    if (nh == kInvalidNode) return 0.0;
    bottleneck = std::min(bottleneck, channel(at, nh).capacity_bps());
    at = nh;
  }
  return bottleneck;
}

bool Network::path_up(NodeId a, NodeId b) const {
  if (a == b) return true;
  NodeId at = a;
  while (at != b) {
    const NodeId nh = next_hop(at, b);
    if (nh == kInvalidNode) return false;
    if (channel(at, nh).is_down()) return false;
    at = nh;
  }
  return true;
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
      fire_taps(pkt.flow.src, TapDirection::kOutgoing, sim_.now(), pkt);
      deliver_to_host(std::move(pkt));
    });
    return;
  }
  forward(std::move(pkt), pkt.flow.src);
}

void Network::forward(Packet&& pkt, NodeId at) {
  const NodeId nh = next_hop(at, pkt.flow.dst);
  if (nh == kInvalidNode) return;  // unreachable: silently dropped (like IP)
  Channel* ch = find_channel(at, nh);
  VW_ASSERT(ch != nullptr, "Network::forward: next hop without a channel (", at, " -> ", nh, ")");
  ch->enqueue(std::move(pkt));
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
  fire_taps(pkt.flow.dst, TapDirection::kIncoming, sim_.now(), pkt);
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
  channel(a, b).set_loss(p, rngs.stream(logcat("loss.", a, ".", b)));
  channel(b, a).set_loss(p, rngs.stream(logcat("loss.", b, ".", a)));
}

std::uint64_t Network::packets_dropped() const {
  std::uint64_t total = 0;
  for (const auto& ch : channels_) total += ch->stats().packets_dropped;
  return total;
}

}  // namespace vw::net
