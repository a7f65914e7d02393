#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "net/packet.hpp"
#include "transport/sources.hpp"
#include "transport/stack.hpp"
#include "transport/tcp.hpp"
#include "transport/udp.hpp"
#include "vnet/ethernet.hpp"

// The VNET daemon: one per physical host. It owns the host's overlay links
// (TCP or virtual-UDP connections to other daemons), a forwarding table of
// (destination MAC -> link) rules, and the attachments of local VM virtual
// interfaces. Every frame captured from a local VM is also handed to the
// VTTIF observer. The initial topology is a star around the Proxy daemon;
// VADAPT later adds direct links and rules.

namespace vw::vnet {

using LinkId = std::uint32_t;
inline constexpr LinkId kInvalidLink = 0xffffffffu;

enum class LinkProtocol : std::uint8_t { kTcp, kUdp };

class VnetDaemon;

/// One endpoint of an overlay link between two daemons.
class OverlayLink {
 public:
  using FrameFn = std::function<void(FramePtr)>;

  virtual ~OverlayLink() = default;
  virtual void send(FramePtr frame) = 0;
  virtual net::NodeId peer_host() const = 0;
  virtual LinkProtocol protocol() const = 0;

  void set_on_frame(FrameFn fn) { on_frame_ = std::move(fn); }

 protected:
  void deliver(FramePtr frame) {
    if (on_frame_) on_frame_(std::move(frame));
  }

 private:
  FrameFn on_frame_;
};

class VnetDaemon {
 public:
  using VmDeliveryFn = std::function<void(FramePtr)>;
  /// VTTIF hook: frames captured from local VM interfaces.
  using FrameObserverFn = std::function<void(const EthernetFrame&)>;
  /// Resolves the daemon currently hosting a MAC (the Proxy's global
  /// knowledge, maintained by the Overlay controller).
  using MacResolverFn = std::function<VnetDaemon*(MacAddress)>;

  VnetDaemon(transport::TransportStack& stack, net::NodeId host, std::string name, bool is_proxy);
  ~VnetDaemon();

  VnetDaemon(const VnetDaemon&) = delete;
  VnetDaemon& operator=(const VnetDaemon&) = delete;

  // --- VM attachment -------------------------------------------------------
  void attach_vm(MacAddress mac, VmDeliveryFn deliver);
  void detach_vm(MacAddress mac);
  bool has_vm(MacAddress mac) const { return local_vms_.contains(mac); }

  /// Entry point for frames emitted by a local VM's virtual interface.
  void inject_from_vm(const EthernetFrame& frame);

  // --- link management (driven by the Overlay controller) -----------------
  LinkId register_link(std::unique_ptr<OverlayLink> link);
  void remove_link(LinkId id);
  bool has_link(LinkId id) const { return links_.contains(id); }
  /// Link whose far end is on `host`, if any.
  std::optional<LinkId> link_to_host(net::NodeId host) const;

  // --- forwarding rules -----------------------------------------------------
  void add_rule(MacAddress dst, LinkId out);
  void remove_rule(MacAddress dst);
  /// The star fallback: where frames with no matching rule go (proxy link).
  void set_default_link(LinkId id) { default_link_ = id; }
  LinkId default_link() const { return default_link_; }
  std::size_t rule_count() const { return rules_.size(); }

  // --- hooks / introspection ----------------------------------------------
  void set_frame_observer(FrameObserverFn fn) { frame_observer_ = std::move(fn); }
  void set_mac_resolver(MacResolverFn fn) { mac_resolver_ = std::move(fn); }

  net::NodeId host() const { return host_; }
  const std::string& name() const { return name_; }
  bool is_proxy() const { return is_proxy_; }

  std::uint64_t frames_forwarded() const { return frames_forwarded_; }
  std::uint64_t frames_dropped() const { return frames_dropped_; }

  /// Attach telemetry (vnet.frames.* and vnet.rules.* counters, shared by
  /// all daemons wired to the same scope).
  void set_obs(const obs::Scope& scope);

  transport::TransportStack& stack() { return stack_; }

  /// Deliver or forward a frame that arrived over an overlay link.
  void handle_from_link(FramePtr frame);

 private:
  void route(FramePtr frame);

  transport::TransportStack& stack_;
  net::NodeId host_;
  std::string name_;
  bool is_proxy_;
  std::map<MacAddress, VmDeliveryFn> local_vms_;
  std::map<LinkId, std::unique_ptr<OverlayLink>> links_;
  std::map<MacAddress, LinkId> rules_;
  LinkId default_link_ = kInvalidLink;
  LinkId next_link_id_ = 0;
  FrameObserverFn frame_observer_;
  MacResolverFn mac_resolver_;
  std::uint64_t frames_forwarded_ = 0;
  std::uint64_t frames_dropped_ = 0;
  obs::Counter* c_forwarded_ = nullptr;
  obs::Counter* c_dropped_ = nullptr;
  obs::Counter* c_rules_added_ = nullptr;
  obs::Counter* c_rules_removed_ = nullptr;
};

}  // namespace vw::vnet
