#include "vnet/overlay.hpp"

#include <stdexcept>

#include "util/check.hpp"

namespace vw::vnet {

Overlay::Overlay(transport::TransportStack& stack) : stack_(stack) {}

Overlay::~Overlay() = default;

void Overlay::set_obs(const obs::Scope& scope) {
  obs_ = scope;
  c_links_added_ = scope.counter("vnet.links.added");
  c_links_removed_ = scope.counter("vnet.links.removed");
  c_paths_installed_ = scope.counter("vnet.paths.installed");
  for (auto& d : daemons_) d->set_obs(scope);
}

VnetDaemon& Overlay::create_daemon(net::NodeId host, std::string name, bool is_proxy) {
  VW_REQUIRE(!by_host_.contains(host), "Overlay: daemon already on host ", host);
  VW_REQUIRE(!is_proxy || proxy_ == nullptr, "Overlay: proxy already exists");
  auto daemon = std::make_unique<VnetDaemon>(stack_, host, std::move(name), is_proxy);
  VnetDaemon* raw = daemon.get();
  if (obs_.enabled()) raw->set_obs(obs_);
  daemons_.push_back(std::move(daemon));
  by_host_[host] = raw;
  if (is_proxy) {
    proxy_ = raw;
    proxy_->set_mac_resolver([this](MacAddress mac) { return daemon_for_mac(mac); });
  }
  return *raw;
}

VnetDaemon& Overlay::proxy() {
  VW_REQUIRE(proxy_ != nullptr, "Overlay: no proxy daemon");
  return *proxy_;
}

VnetDaemon& Overlay::daemon_on(net::NodeId host) {
  auto it = by_host_.find(host);
  VW_REQUIRE(it != by_host_.end(), "Overlay: no daemon on host ", host);
  return *it->second;
}

std::vector<net::NodeId> Overlay::daemon_hosts() const {
  std::vector<net::NodeId> out;
  out.reserve(by_host_.size());
  for (const auto& [host, daemon] : by_host_) out.push_back(host);
  return out;
}

Overlay::LinkRecord Overlay::make_link(VnetDaemon& a, VnetDaemon& b, LinkProtocol proto) {
  LinkRecord rec{&a, &b, kInvalidLink, kInvalidLink};
  if (proto == LinkProtocol::kTcp) {
    // b listens on a fresh port; a connects. The handshake completes via
    // simulator events *after* the caller has pushed this record into
    // star_links_/dynamic_links_, so the accept callback locates the pending
    // record (matched by daemon pair, b-side unset) and fills in b_side.
    const std::uint16_t port = stack_.ephemeral_port(b.host());
    VnetDaemon* a_ptr = &a;
    VnetDaemon* b_ptr = &b;
    stack_.tcp_listen(b.host(), port, [this, a_ptr, b_ptr](transport::TcpConnection& conn) {
      auto finish = [&](std::vector<LinkRecord>& list) {
        for (auto& r : list) {
          if (r.a == a_ptr && r.b == b_ptr && r.b_side == kInvalidLink) {
            r.b_side = b_ptr->register_link(std::make_unique<TcpOverlayLink>(conn));
            return true;
          }
        }
        return false;
      };
      if (!finish(dynamic_links_)) finish(star_links_);
    });
    auto& client = stack_.tcp_connect(a.host(), b.host(), port);
    rec.a_side = a.register_link(std::make_unique<TcpOverlayLink>(client));
  } else {
    const std::uint16_t port_a = stack_.ephemeral_port(a.host());
    const std::uint16_t port_b = stack_.ephemeral_port(b.host());
    auto sock_a = stack_.udp_bind(a.host(), port_a);
    auto sock_b = stack_.udp_bind(b.host(), port_b);
    rec.a_side = a.register_link(std::make_unique<UdpOverlayLink>(sock_a, b.host(), port_b));
    rec.b_side = b.register_link(std::make_unique<UdpOverlayLink>(sock_b, a.host(), port_a));
  }
  return rec;
}

void Overlay::bootstrap_star(LinkProtocol proto) {
  VW_REQUIRE(!star_built_, "Overlay: star already built");
  VnetDaemon& hub = proxy();
  for (auto& d : daemons_) {
    if (d.get() == &hub) continue;
    LinkRecord rec = make_link(*d, hub, proto);
    VW_ASSERT(rec.a_side != kInvalidLink, "Overlay: star link has no spoke side");
    d->set_default_link(rec.a_side);
    star_links_.push_back(rec);
  }
  star_built_ = true;
  VW_ENSURE(star_links_.size() + 1 == daemons_.size(),
            "Overlay: star must connect every non-proxy daemon to the hub");
}

void Overlay::register_vm(MacAddress mac, VnetDaemon& daemon) { mac_registry_[mac] = &daemon; }

void Overlay::unregister_vm(MacAddress mac) { mac_registry_.erase(mac); }

VnetDaemon* Overlay::daemon_for_mac(MacAddress mac) const {
  auto it = mac_registry_.find(mac);
  return it == mac_registry_.end() ? nullptr : it->second;
}

std::pair<LinkId, LinkId> Overlay::ensure_link(VnetDaemon& a, VnetDaemon& b, LinkProtocol proto) {
  // Existing direct link (star or dynamic) in either orientation?
  if (auto a_side = a.link_to_host(b.host())) {
    auto b_side = b.link_to_host(a.host());
    return {*a_side, b_side.value_or(kInvalidLink)};
  }
  VW_REQUIRE(&a != &b, "Overlay::ensure_link: self link");
  LinkRecord rec = make_link(a, b, proto);
  VW_ENSURE(rec.a_side != kInvalidLink, "Overlay::ensure_link: link creation failed");
  dynamic_links_.push_back(rec);
  obs::add(c_links_added_);
  return {rec.a_side, rec.b_side};
}

void Overlay::install_path(const std::vector<net::NodeId>& path, MacAddress dst_mac,
                           LinkProtocol proto) {
  if (path.size() < 2) return;
  // A forwarding loop would bounce frames between daemons forever.
  VW_AUDIT([&path] {
    for (std::size_t i = 0; i < path.size(); ++i) {
      for (std::size_t j = i + 1; j < path.size(); ++j) {
        if (path[i] == path[j]) return false;
      }
    }
    return true;
  }(),
           "Overlay::install_path: repeated host in path (forwarding loop)");
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    VnetDaemon& from = daemon_on(path[i]);
    VnetDaemon& to = daemon_on(path[i + 1]);
    auto [from_side, to_side] = ensure_link(from, to, proto);
    from.add_rule(dst_mac, from_side);
  }
  obs::add(c_paths_installed_);
}

void Overlay::reset_to_star() {
  for (const LinkRecord& rec : dynamic_links_) {
    rec.a->remove_link(rec.a_side);  // also erases rules referencing the link
    if (rec.b_side != kInvalidLink) rec.b->remove_link(rec.b_side);
  }
  obs::add(c_links_removed_, dynamic_links_.size());
  dynamic_links_.clear();
  // Remove any rules that pointed at star links too.
  std::vector<MacAddress> macs;
  macs.reserve(mac_registry_.size());
  for (const auto& [mac, daemon] : mac_registry_) macs.push_back(mac);
  for (auto& d : daemons_) {
    for (MacAddress mac : macs) d->remove_rule(mac);
  }
}

}  // namespace vw::vnet
