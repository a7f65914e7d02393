#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "transport/stack.hpp"
#include "vnet/daemon.hpp"
#include "vnet/links.hpp"

// The Overlay controller: creates daemons, bootstraps the always-maintained
// star topology around the Proxy, tracks which daemon hosts each VM MAC
// (updated on migration), and applies dynamic topology changes — extra
// links and forwarding rules — that VADAPT requests.

namespace vw::vnet {

class Overlay {
 public:
  explicit Overlay(transport::TransportStack& stack);
  ~Overlay();

  Overlay(const Overlay&) = delete;
  Overlay& operator=(const Overlay&) = delete;

  // --- deployment -----------------------------------------------------------
  /// The first daemon created with is_proxy=true becomes the Proxy.
  VnetDaemon& create_daemon(net::NodeId host, std::string name, bool is_proxy = false);

  /// Connect every non-proxy daemon to the Proxy and make that link each
  /// daemon's default route (the initial star that is always maintained).
  void bootstrap_star(LinkProtocol proto = LinkProtocol::kTcp);

  VnetDaemon& proxy();
  VnetDaemon& daemon_on(net::NodeId host);
  std::vector<net::NodeId> daemon_hosts() const;

  // --- VM MAC registry (the Proxy's network presence) ---------------------
  void register_vm(MacAddress mac, VnetDaemon& daemon);
  void unregister_vm(MacAddress mac);
  VnetDaemon* daemon_for_mac(MacAddress mac) const;

  // --- dynamic adaptation ops ------------------------------------------------
  /// Ensure a direct overlay link between two daemons exists; returns the
  /// (a-side, b-side) link ids. Idempotent.
  std::pair<LinkId, LinkId> ensure_link(VnetDaemon& a, VnetDaemon& b,
                                        LinkProtocol proto = LinkProtocol::kTcp);

  /// Install forwarding rules so frames for `dst_mac` follow `path`
  /// (a sequence of daemon hosts ending at the daemon hosting the VM),
  /// creating missing links along the way.
  void install_path(const std::vector<net::NodeId>& path, MacAddress dst_mac,
                    LinkProtocol proto = LinkProtocol::kTcp);

  /// Remove all non-star links and all forwarding rules (back to the star).
  void reset_to_star();

  std::size_t dynamic_link_count() const { return dynamic_links_.size(); }

  /// Attach telemetry (vnet.links.* / vnet.paths.* counters); forwards to
  /// every daemon, existing and future.
  void set_obs(const obs::Scope& scope);

 private:
  struct LinkRecord {
    VnetDaemon* a;
    VnetDaemon* b;
    LinkId a_side;
    LinkId b_side;
  };

  LinkRecord make_link(VnetDaemon& a, VnetDaemon& b, LinkProtocol proto);

  transport::TransportStack& stack_;
  std::vector<std::unique_ptr<VnetDaemon>> daemons_;
  std::map<net::NodeId, VnetDaemon*> by_host_;
  VnetDaemon* proxy_ = nullptr;
  std::map<MacAddress, VnetDaemon*> mac_registry_;
  std::vector<LinkRecord> star_links_;
  std::vector<LinkRecord> dynamic_links_;
  bool star_built_ = false;
  obs::Scope obs_;
  obs::Counter* c_links_added_ = nullptr;
  obs::Counter* c_links_removed_ = nullptr;
  obs::Counter* c_paths_installed_ = nullptr;
};

}  // namespace vw::vnet
