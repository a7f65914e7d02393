#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

// The physical network: a graph of nodes (hosts and routers) connected by
// full-duplex links, with static shortest-latency routing, host protocol
// stacks, host-level packet taps (Wren's observation point) and NistNet-style
// endpoint delay emulation.

namespace vw::net {

using TapId = std::uint64_t;
using HostStackFn = SmallFn<void(Packet&&)>;

struct NodeInfo {
  std::string name;
  bool is_host = false;
};

struct LinkConfig {
  double bits_per_sec = 100e6;
  SimTime prop_delay = micros(50);
  std::int64_t queue_limit_bytes = 256 * 1024;
};

class Network {
 public:
  explicit Network(sim::Simulator& sim);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology construction -------------------------------------------
  NodeId add_node(std::string name, bool is_host);
  NodeId add_host(std::string name) { return add_node(std::move(name), true); }
  NodeId add_router(std::string name) { return add_node(std::move(name), false); }

  /// Adds a full-duplex link (two symmetric channels) between a and b.
  void add_link(NodeId a, NodeId b, const LinkConfig& config);

  /// Recomputes the routing tables; must be called after topology
  /// construction and after any add_link. Routes are shortest-latency paths
  /// over the router core: a leaf (a node whose only link goes to a
  /// non-leaf) routes through its neighbour and is never a transit hop.
  void compute_routes();

  // --- data path ---------------------------------------------------------
  /// Inject a packet at its source host. Stamps send_time and id.
  void send(Packet pkt);

  /// Install the protocol stack for a host (receives delivered packets).
  void set_host_stack(NodeId host, HostStackFn stack);

  /// Register a Wren-style tap on a host; sees outgoing packets at NIC
  /// serialization completion and incoming packets at delivery, in time
  /// order. Outgoing records are reported when the host's links settle
  /// (link.hpp): at the latest when the host next receives a packet or
  /// settle_host() runs.
  TapId add_host_tap(NodeId host, TapFn fn);
  void remove_host_tap(NodeId host, TapId id);

  /// Settle every link leaving `host`: each packet it finished serializing
  /// by now() has reached its outgoing taps. Readers of tap-fed state call
  /// this first.
  void settle_host(NodeId host);

  /// NistNet-style emulation: adds a fixed extra one-way delay to packets
  /// delivered from `a` to `b` (and b->a when bidirectional).
  void add_endpoint_delay(NodeId a, NodeId b, SimTime one_way, bool bidirectional = true);

  // --- failure injection (both directions of the link) --------------------
  void set_link_down(NodeId a, NodeId b, bool down);
  void set_link_loss(NodeId a, NodeId b, double p, const RngService& rngs);

  // --- introspection -------------------------------------------------------
  std::size_t node_count() const { return nodes_.size(); }
  const NodeInfo& node(NodeId id) const { return nodes_.at(id); }
  sim::Simulator& simulator() { return sim_; }

  /// The directed channel from `from` to `to`; throws when absent.
  Channel& channel(NodeId from, NodeId to);
  const Channel& channel(NodeId from, NodeId to) const;
  bool has_channel(NodeId from, NodeId to) const;

  /// Next hop from `at` toward `dst`; kInvalidNode when unreachable or when
  /// `at == dst`.
  NodeId next_hop(NodeId at, NodeId dst) const;

  /// Sum of propagation delays along the routed path a->b; -1 if unreachable.
  SimTime path_prop_delay(NodeId a, NodeId b) const;

  /// Minimum channel capacity along the routed path a->b; 0 if unreachable.
  double path_bottleneck_bps(NodeId a, NodeId b) const;

  /// True when every channel on the routed path a->b is up (and the path
  /// exists). Routing is static, so a down link means the path is dead.
  bool path_up(NodeId a, NodeId b) const;

  std::uint64_t packets_delivered() const { return packets_delivered_; }
  std::uint64_t packets_dropped() const;

 private:
  /// Marks "no route" in the first-hop table and a core node in uplink_.
  static constexpr ChannelId kNoChannel = 0xffffffffu;

  void handle_arrival(Packet&& pkt, NodeId at);
  void deliver_to_host(Packet&& pkt);
  void forward(Packet&& pkt, NodeId at);
  /// Fires `host`'s taps for `pkt` at now(), after settling the host's
  /// links so the taps see records in time order.
  void tap_now(NodeId host, TapDirection dir, const Packet& pkt);
  void fire_taps(NodeId host, TapDirection dir, SimTime t, const Packet& pkt);

  /// The channel a packet at `at` bound for `dst` leaves on; kNoChannel when
  /// `dst` is unreachable or `at == dst`. Both ids must be in range.
  ChannelId first_hop(NodeId at, NodeId dst) const;

  /// Calls fn(channel) for each channel of the routed path a -> b, in
  /// order; false when b is unreachable from a.
  template <typename Fn>
  bool for_each_hop(NodeId a, NodeId b, Fn&& fn) const;

  /// The channel from -> to, or nullptr.
  Channel* find_channel(NodeId from, NodeId to) const;

  sim::Simulator& sim_;
  std::vector<NodeInfo> nodes_;
  std::vector<std::unique_ptr<Channel>> channels_;
  // Owner of the (from, to) -> channel relation: channel lookups, duplicate-
  // link checks, and the deterministic order compute_routes builds its
  // adjacency rows in. The packet path never searches it.
  std::map<std::pair<NodeId, NodeId>, Channel*> channel_by_pair_;
  std::vector<HostStackFn> host_stacks_;
  std::vector<std::vector<std::pair<TapId, TapFn>>> taps_;
  std::map<std::pair<NodeId, NodeId>, SimTime> endpoint_delays_;

  // Routing state, rebuilt by compute_routes. Every per-node table is O(n);
  // only route_ is quadratic, and only in the core size.
  /// A core node's own core index; a leaf's neighbour's core index.
  std::vector<std::uint32_t> core_of_;
  std::vector<ChannelId> uplink_;  ///< a leaf's single out-channel; kNoChannel for core
  std::size_t core_count_ = 0;
  std::vector<ChannelId> route_;  ///< [core_of(at) * core_count_ + core_of(dst)] first hop
  bool routes_valid_ = false;
  TapId next_tap_id_ = 1;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t packets_delivered_ = 0;
};

}  // namespace vw::net
