// Tests for the VNET overlay: daemons, star bootstrap around the Proxy,
// frame routing (local delivery, rules, proxy resolution, default link),
// dynamic links and the encapsulating overlay link types.

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "transport/stack.hpp"
#include "util/check.hpp"
#include "vnet/control.hpp"
#include "vnet/daemon.hpp"
#include "vnet/links.hpp"
#include "vnet/overlay.hpp"

namespace vw::vnet {
namespace {

struct OverlayEnv {
  sim::Simulator sim;
  net::Network net{sim};
  std::vector<net::NodeId> hosts;
  std::unique_ptr<transport::TransportStack> stack;
  std::unique_ptr<Overlay> overlay;

  explicit OverlayEnv(std::size_t n_hosts = 3) {
    const net::NodeId sw = net.add_router("switch");
    for (std::size_t i = 0; i < n_hosts; ++i) {
      const net::NodeId h = net.add_host("host-" + std::to_string(i));
      net::LinkConfig cfg;
      cfg.bits_per_sec = 100e6;
      cfg.prop_delay = micros(50);
      net.add_link(h, sw, cfg);
      hosts.push_back(h);
    }
    net.compute_routes();
    stack = std::make_unique<transport::TransportStack>(net);
    overlay = std::make_unique<Overlay>(*stack);
  }
};

EthernetFrame frame(MacAddress src, MacAddress dst, std::uint32_t bytes = 500) {
  EthernetFrame f;
  f.src_mac = src;
  f.dst_mac = dst;
  f.payload_bytes = bytes;
  return f;
}

TEST(VnetDaemonTest, LocalDelivery) {
  OverlayEnv env;
  VnetDaemon& d = env.overlay->create_daemon(env.hosts[0], "proxy", /*is_proxy=*/true);
  FramePtr got;
  d.attach_vm(1, [&](FramePtr f) { got = std::move(f); });
  d.attach_vm(2, [](FramePtr) {});
  d.inject_from_vm(frame(2, 1));
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->src_mac, 2u);
}

TEST(VnetDaemonTest, NoRouteDropsFrame) {
  OverlayEnv env;
  VnetDaemon& d = env.overlay->create_daemon(env.hosts[0], "proxy", true);
  d.inject_from_vm(frame(1, 99));
  EXPECT_EQ(d.frames_dropped(), 1u);
}

TEST(VnetDaemonTest, FrameObserverSeesLocalVmFrames) {
  OverlayEnv env;
  VnetDaemon& d = env.overlay->create_daemon(env.hosts[0], "proxy", true);
  std::vector<EthernetFrame> seen;
  d.set_frame_observer([&](const EthernetFrame& f) { seen.push_back(f); });
  d.attach_vm(1, [](FramePtr) {});
  d.inject_from_vm(frame(2, 1, 777));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].payload_bytes, 777u);
}

TEST(OverlayTest, StarDeliversAcrossHostsTcp) {
  OverlayEnv env(3);
  VnetDaemon& proxy = env.overlay->create_daemon(env.hosts[0], "proxy", true);
  VnetDaemon& d1 = env.overlay->create_daemon(env.hosts[1], "d1");
  VnetDaemon& d2 = env.overlay->create_daemon(env.hosts[2], "d2");
  env.overlay->bootstrap_star(LinkProtocol::kTcp);
  (void)proxy;

  FramePtr got;
  d2.attach_vm(20, [&](FramePtr f) { got = std::move(f); });
  env.overlay->register_vm(20, d2);
  d1.attach_vm(10, [](FramePtr) {});
  env.overlay->register_vm(10, d1);

  env.sim.run_until(seconds(1.0));  // let star connections establish
  d1.inject_from_vm(frame(10, 20, 800));
  env.sim.run_until(seconds(2.0));
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->src_mac, 10u);
  EXPECT_EQ(got->payload_bytes, 800u);
}

TEST(OverlayTest, StarDeliversAcrossHostsUdp) {
  OverlayEnv env(3);
  env.overlay->create_daemon(env.hosts[0], "proxy", true);
  VnetDaemon& d1 = env.overlay->create_daemon(env.hosts[1], "d1");
  VnetDaemon& d2 = env.overlay->create_daemon(env.hosts[2], "d2");
  env.overlay->bootstrap_star(LinkProtocol::kUdp);

  FramePtr got;
  d2.attach_vm(20, [&](FramePtr f) { got = std::move(f); });
  env.overlay->register_vm(20, d2);

  d1.inject_from_vm(frame(10, 20));
  env.sim.run_until(seconds(1.0));
  ASSERT_NE(got, nullptr);
}

TEST(OverlayTest, FramesTraverseProxyInStar) {
  OverlayEnv env(3);
  VnetDaemon& proxy = env.overlay->create_daemon(env.hosts[0], "proxy", true);
  VnetDaemon& d1 = env.overlay->create_daemon(env.hosts[1], "d1");
  VnetDaemon& d2 = env.overlay->create_daemon(env.hosts[2], "d2");
  env.overlay->bootstrap_star(LinkProtocol::kUdp);
  int delivered = 0;
  d2.attach_vm(20, [&](FramePtr) { ++delivered; });
  env.overlay->register_vm(20, d2);
  d1.inject_from_vm(frame(10, 20));
  env.sim.run_until(seconds(1.0));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(proxy.frames_forwarded(), 1u);  // hairpin through the hub
}

TEST(OverlayTest, DirectLinkAndRuleBypassesProxy) {
  OverlayEnv env(3);
  VnetDaemon& proxy = env.overlay->create_daemon(env.hosts[0], "proxy", true);
  VnetDaemon& d1 = env.overlay->create_daemon(env.hosts[1], "d1");
  VnetDaemon& d2 = env.overlay->create_daemon(env.hosts[2], "d2");
  env.overlay->bootstrap_star(LinkProtocol::kUdp);
  int delivered = 0;
  d2.attach_vm(20, [&](FramePtr) { ++delivered; });
  env.overlay->register_vm(20, d2);

  // VADAPT-style change: direct link d1 -> d2 plus a forwarding rule.
  env.overlay->install_path({env.hosts[1], env.hosts[2]}, 20, LinkProtocol::kUdp);
  d1.inject_from_vm(frame(10, 20));
  env.sim.run_until(seconds(1.0));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(proxy.frames_forwarded(), 0u);  // bypassed
  EXPECT_EQ(env.overlay->dynamic_link_count(), 1u);
}

TEST(OverlayTest, MultiHopInstallPath) {
  OverlayEnv env(4);
  env.overlay->create_daemon(env.hosts[0], "proxy", true);
  VnetDaemon& d1 = env.overlay->create_daemon(env.hosts[1], "d1");
  VnetDaemon& mid = env.overlay->create_daemon(env.hosts[2], "mid");
  VnetDaemon& d3 = env.overlay->create_daemon(env.hosts[3], "d3");
  env.overlay->bootstrap_star(LinkProtocol::kUdp);
  int delivered = 0;
  d3.attach_vm(30, [&](FramePtr) { ++delivered; });
  env.overlay->register_vm(30, d3);

  // Route via the intermediate daemon (overlay-level forwarding).
  env.overlay->install_path({env.hosts[1], env.hosts[2], env.hosts[3]}, 30, LinkProtocol::kUdp);
  d1.inject_from_vm(frame(10, 30));
  env.sim.run_until(seconds(1.0));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(mid.frames_forwarded(), 1u);
}

TEST(OverlayTest, ResetToStarRemovesDynamicState) {
  OverlayEnv env(3);
  env.overlay->create_daemon(env.hosts[0], "proxy", true);
  VnetDaemon& d1 = env.overlay->create_daemon(env.hosts[1], "d1");
  VnetDaemon& d2 = env.overlay->create_daemon(env.hosts[2], "d2");
  env.overlay->bootstrap_star(LinkProtocol::kUdp);
  env.overlay->register_vm(20, d2);
  env.overlay->install_path({env.hosts[1], env.hosts[2]}, 20, LinkProtocol::kUdp);
  EXPECT_EQ(env.overlay->dynamic_link_count(), 1u);
  EXPECT_EQ(d1.rule_count(), 1u);
  env.overlay->reset_to_star();
  EXPECT_EQ(env.overlay->dynamic_link_count(), 0u);
  EXPECT_EQ(d1.rule_count(), 0u);

  // Traffic still flows via the star.
  int delivered = 0;
  d2.attach_vm(20, [&](FramePtr) { ++delivered; });
  d1.inject_from_vm(frame(10, 20));
  env.sim.run_until(seconds(1.0));
  EXPECT_EQ(delivered, 1);
}

TEST(OverlayTest, ResetToStarWithTcpFramesInFlight) {
  // reset_to_star() destroys the dynamic TcpOverlayLinks while their
  // connections still carry frames. Those frames must be dropped at the
  // connection, never delivered into the destroyed links (under ASan this
  // is a heap-use-after-free if the link leaves its callback behind).
  OverlayEnv env(3);
  env.overlay->create_daemon(env.hosts[0], "proxy", true);
  VnetDaemon& d1 = env.overlay->create_daemon(env.hosts[1], "d1");
  VnetDaemon& d2 = env.overlay->create_daemon(env.hosts[2], "d2");
  env.overlay->bootstrap_star(LinkProtocol::kTcp);
  int delivered = 0;
  d2.attach_vm(20, [&](FramePtr) { ++delivered; });
  env.overlay->register_vm(20, d2);
  env.overlay->install_path({env.hosts[1], env.hosts[2]}, 20, LinkProtocol::kTcp);
  env.sim.run_until(millis(10));  // handshake done

  constexpr int kFrames = 50;
  for (int i = 0; i < kFrames; ++i) d1.inject_from_vm(frame(10, 20, 1400));
  env.sim.run_until(millis(11));
  const int before_reset = delivered;
  ASSERT_GT(before_reset, 0);
  ASSERT_LT(before_reset, kFrames);  // the rest are still in flight

  env.overlay->reset_to_star();
  env.sim.run_until(millis(100));
  EXPECT_EQ(delivered, before_reset);

  // The star still carries traffic afterwards.
  d1.inject_from_vm(frame(10, 20));
  env.sim.run_until(millis(200));
  EXPECT_EQ(delivered, before_reset + 1);
}

TEST(OverlayTest, EnsureLinkIsIdempotent) {
  OverlayEnv env(3);
  env.overlay->create_daemon(env.hosts[0], "proxy", true);
  VnetDaemon& d1 = env.overlay->create_daemon(env.hosts[1], "d1");
  VnetDaemon& d2 = env.overlay->create_daemon(env.hosts[2], "d2");
  env.overlay->bootstrap_star(LinkProtocol::kUdp);
  auto [a1, b1] = env.overlay->ensure_link(d1, d2, LinkProtocol::kUdp);
  auto [a2, b2] = env.overlay->ensure_link(d1, d2, LinkProtocol::kUdp);
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(env.overlay->dynamic_link_count(), 1u);
  (void)b1;
  (void)b2;
}

TEST(OverlayTest, TtlPreventsForwardingLoops) {
  OverlayEnv env(3);
  env.overlay->create_daemon(env.hosts[0], "proxy", true);
  VnetDaemon& d1 = env.overlay->create_daemon(env.hosts[1], "d1");
  VnetDaemon& d2 = env.overlay->create_daemon(env.hosts[2], "d2");
  env.overlay->bootstrap_star(LinkProtocol::kUdp);
  // Deliberately install a 2-cycle for an unattached MAC.
  env.overlay->install_path({env.hosts[1], env.hosts[2]}, 77, LinkProtocol::kUdp);
  env.overlay->install_path({env.hosts[2], env.hosts[1]}, 77, LinkProtocol::kUdp);
  d1.inject_from_vm(frame(10, 77));
  env.sim.run_until(seconds(5.0));  // must terminate (TTL), not loop forever
  EXPECT_GT(d1.frames_dropped() + d2.frames_dropped(), 0u);
}

TEST(OverlayTest, MacRegistryTracksDaemon) {
  OverlayEnv env(2);
  VnetDaemon& proxy = env.overlay->create_daemon(env.hosts[0], "proxy", true);
  VnetDaemon& d1 = env.overlay->create_daemon(env.hosts[1], "d1");
  env.overlay->register_vm(5, d1);
  EXPECT_EQ(env.overlay->daemon_for_mac(5), &d1);
  env.overlay->register_vm(5, proxy);  // migration: re-register
  EXPECT_EQ(env.overlay->daemon_for_mac(5), &proxy);
  env.overlay->unregister_vm(5);
  EXPECT_EQ(env.overlay->daemon_for_mac(5), nullptr);
}

TEST(OverlayTest, SecondProxyThrows) {
  OverlayEnv env(2);
  env.overlay->create_daemon(env.hosts[0], "proxy", true);
  EXPECT_THROW(env.overlay->create_daemon(env.hosts[1], "proxy2", true), std::invalid_argument);
}

TEST(OverlayTest, DuplicateDaemonOnHostThrows) {
  OverlayEnv env(2);
  env.overlay->create_daemon(env.hosts[0], "a", true);
  EXPECT_THROW(env.overlay->create_daemon(env.hosts[0], "b"), std::invalid_argument);
}

TEST(OverlayTest, EncapsulationAddsOverheadOnWire) {
  // A 500B frame over a UDP overlay link must appear on the physical wire
  // as frame + encapsulation + UDP/IP headers.
  OverlayEnv env(2);
  env.overlay->create_daemon(env.hosts[0], "proxy", true);
  VnetDaemon& d1 = env.overlay->create_daemon(env.hosts[1], "d1");
  env.overlay->bootstrap_star(LinkProtocol::kUdp);
  std::uint32_t wire_bytes = 0;
  env.net.add_host_tap(env.hosts[1], [&](const net::TapEvent& ev) {
    if (ev.direction == net::TapDirection::kOutgoing) wire_bytes = ev.packet->size_bytes();
  });
  d1.inject_from_vm(frame(10, 99, 500));  // unknown mac: proxy will drop, but it leaves d1
  env.sim.run_until(seconds(1.0));
  EXPECT_EQ(wire_bytes, 500u + kEthernetHeaderBytes + kEncapsulationBytes + 28u);
}

TEST(OverlayTest, StarLinkOutageDropsAndRecovers) {
  OverlayEnv env(3);
  env.overlay->create_daemon(env.hosts[0], "proxy", true);
  VnetDaemon& d1 = env.overlay->create_daemon(env.hosts[1], "d1");
  VnetDaemon& d2 = env.overlay->create_daemon(env.hosts[2], "d2");
  env.overlay->bootstrap_star(LinkProtocol::kUdp);
  int delivered = 0;
  d2.attach_vm(20, [&](FramePtr) { ++delivered; });
  env.overlay->register_vm(20, d2);

  // Take the d1 access link down: frames vanish silently (UDP overlay).
  env.net.set_link_down(env.hosts[1], env.net.next_hop(env.hosts[1], env.hosts[0]), true);
  d1.inject_from_vm(frame(10, 20));
  env.sim.run_until(seconds(1.0));
  EXPECT_EQ(delivered, 0);

  // Back up: traffic resumes.
  env.net.set_link_down(env.hosts[1], env.net.next_hop(env.hosts[1], env.hosts[0]), false);
  d1.inject_from_vm(frame(10, 20));
  env.sim.run_until(seconds(2.0));
  EXPECT_EQ(delivered, 1);
}

TEST(VnetDaemonTest, RemoveLinkErasesDependentRules) {
  OverlayEnv env(3);
  env.overlay->create_daemon(env.hosts[0], "proxy", true);
  VnetDaemon& d1 = env.overlay->create_daemon(env.hosts[1], "d1");
  VnetDaemon& d2 = env.overlay->create_daemon(env.hosts[2], "d2");
  env.overlay->bootstrap_star(LinkProtocol::kUdp);
  auto [a_side, b_side] = env.overlay->ensure_link(d1, d2, LinkProtocol::kUdp);
  (void)b_side;
  d1.add_rule(42, a_side);
  EXPECT_EQ(d1.rule_count(), 1u);
  d1.remove_link(a_side);
  EXPECT_EQ(d1.rule_count(), 0u);
  EXPECT_FALSE(d1.has_link(a_side));
}

// --- control plane ------------------------------------------------------------

TEST(ControlPlaneTest, ReportsCrossTheNetwork) {
  OverlayEnv env(3);
  ControlPlane control(*env.stack, env.hosts[0]);
  std::vector<std::string> reporters;
  control.register_handler("VttifUpdate", [&](const soap::XmlNode& msg) {
    reporters.push_back(msg.attributes.at("reporter"));
  });

  soap::XmlNode msg;
  msg.name = "VttifUpdate";
  msg.attributes["reporter"] = std::to_string(env.hosts[1]);
  control.send(env.hosts[1], msg);
  EXPECT_TRUE(reporters.empty());  // in flight: handshake + transfer take time
  env.sim.run_until(seconds(1.0));
  ASSERT_EQ(reporters.size(), 1u);
  EXPECT_EQ(reporters[0], std::to_string(env.hosts[1]));
  EXPECT_GT(control.bytes_shipped(), 0u);
}

TEST(ControlPlaneTest, ProxyHostShortCircuits) {
  OverlayEnv env(2);
  ControlPlane control(*env.stack, env.hosts[0]);
  int handled = 0;
  control.register_handler("Ping", [&](const soap::XmlNode&) { ++handled; });
  soap::XmlNode msg;
  msg.name = "Ping";
  control.send(env.hosts[0], msg);  // from the proxy host itself
  EXPECT_EQ(handled, 1);            // immediate, no network
  EXPECT_EQ(control.bytes_shipped(), 0u);
}

TEST(ControlPlaneTest, UnknownRootCountedAsUnhandled) {
  OverlayEnv env(2);
  ControlPlane control(*env.stack, env.hosts[0]);
  soap::XmlNode msg;
  msg.name = "Mystery";
  control.send(env.hosts[0], msg);
  EXPECT_EQ(control.messages_delivered(), 0u);  // no handler matched
  EXPECT_EQ(control.messages_unhandled(), 1u);
  EXPECT_EQ(control.parse_failures(), 0u);
}

TEST(ControlPlaneTest, DecodeErrorsAreDroppedContractErrorsPropagate) {
  OverlayEnv env(2);
  ControlPlane control(*env.stack, env.hosts[0]);
  control.register_handler("Bad", [](const soap::XmlNode& m) { soap::attr<double>(m, "x"); });
  control.register_handler("Bug", [](const soap::XmlNode&) { VW_REQUIRE(false, "bug"); });
  soap::XmlNode msg;
  msg.name = "Bad";
  control.send(env.hosts[0], msg);
  EXPECT_EQ(control.parse_failures(), 1u);
  EXPECT_EQ(control.messages_delivered(), 0u);
  msg.name = "Bug";
  EXPECT_THROW(control.send(env.hosts[0], msg), vw::contracts::ContractError);
  EXPECT_EQ(control.parse_failures(), 1u);
}

TEST(ControlPlaneTest, ReusesOneConnectionPerHost) {
  OverlayEnv env(2);
  ControlPlane control(*env.stack, env.hosts[0]);
  int handled = 0;
  control.register_handler("Ping", [&](const soap::XmlNode&) { ++handled; });
  soap::XmlNode msg;
  msg.name = "Ping";
  for (int i = 0; i < 10; ++i) control.send(env.hosts[1], msg);
  env.sim.run_until(seconds(2.0));
  EXPECT_EQ(handled, 10);
}

}  // namespace
}  // namespace vw::vnet
