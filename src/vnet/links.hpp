#pragma once

#include <memory>

#include "transport/stack.hpp"
#include "transport/tcp.hpp"
#include "transport/udp.hpp"
#include "vnet/daemon.hpp"

// Concrete overlay links. A TCP link encapsulates frames as length-delimited
// messages on one connection (reliable, ordered, congestion-controlled —
// this is the traffic Wren observes between daemons). A virtual UDP link
// sends each frame as one datagram (unreliable, no head-of-line blocking).

namespace vw::vnet {

/// Bytes VNET prepends to each frame when encapsulating over a transport
/// connection (link header + length framing).
inline constexpr std::uint32_t kEncapsulationBytes = 8;

class TcpOverlayLink final : public OverlayLink {
 public:
  /// Wraps one endpoint of an established (or connecting) TCP connection.
  TcpOverlayLink(transport::TcpConnection& conn);
  /// Detaches from the connection, which outlives the link: frames still in
  /// flight when the link is removed are then dropped, not delivered here.
  ~TcpOverlayLink() override;

  TcpOverlayLink(const TcpOverlayLink&) = delete;
  TcpOverlayLink& operator=(const TcpOverlayLink&) = delete;

  void send(FramePtr frame) override;
  net::NodeId peer_host() const override { return conn_.remote_host(); }
  LinkProtocol protocol() const override { return LinkProtocol::kTcp; }

  transport::TcpConnection& connection() { return conn_; }

 private:
  transport::TcpConnection& conn_;
};

class UdpOverlayLink final : public OverlayLink {
 public:
  /// Owns a bound UDP socket and targets the peer daemon's socket.
  UdpOverlayLink(std::shared_ptr<transport::UdpSocket> socket, net::NodeId peer_host,
                 std::uint16_t peer_port);

  void send(FramePtr frame) override;
  net::NodeId peer_host() const override { return peer_host_; }
  LinkProtocol protocol() const override { return LinkProtocol::kUdp; }

 private:
  std::shared_ptr<transport::UdpSocket> socket_;
  net::NodeId peer_host_;
  std::uint16_t peer_port_;
};

}  // namespace vw::vnet
