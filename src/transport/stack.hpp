#pragma once

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "net/network.hpp"
#include "net/packet.hpp"
#include "obs/scope.hpp"
#include "sim/simulator.hpp"

// Per-network transport demultiplexer. Owns the host protocol stacks: every
// delivered packet is dispatched to the TCP connection or UDP socket bound
// to its flow/port. Sockets and connections register themselves here.

namespace vw::transport {

class TcpConnection;
class UdpSocket;

inline constexpr std::uint32_t kMss = 1460;         ///< TCP max segment payload
inline constexpr std::uint32_t kHeaderBytes = 40;   ///< IP + TCP/UDP header model

class TransportStack {
 public:
  explicit TransportStack(net::Network& network);
  ~TransportStack();

  TransportStack(const TransportStack&) = delete;
  TransportStack& operator=(const TransportStack&) = delete;

  net::Network& network() { return network_; }
  sim::Simulator& simulator() { return network_.simulator(); }

  /// RFC 1122 delayed ACKs for subsequently created TCP connections (both
  /// the client endpoint of tcp_connect and server endpoints from
  /// listeners): acknowledge every second full segment or after
  /// kDelayedAckTimeout, whichever first; out-of-order data is ACKed
  /// immediately. Off by default (per-segment ACKs give Wren the densest
  /// feedback; the delayed-ACK ablation measures the accuracy cost).
  void set_delayed_ack(bool on) { delayed_ack_ = on; }

  /// Allocates an ephemeral port on `host` (49152+, never reused).
  std::uint16_t ephemeral_port(net::NodeId host);

  // --- TCP --------------------------------------------------------------
  using AcceptFn = std::function<void(TcpConnection&)>;

  /// Start listening for TCP connections on (host, port).
  void tcp_listen(net::NodeId host, std::uint16_t port, AcceptFn on_accept);
  void tcp_unlisten(net::NodeId host, std::uint16_t port);

  /// Open a TCP connection; returns the client endpoint. The connection
  /// completes the three-way handshake asynchronously; queued data flows
  /// once established.
  TcpConnection& tcp_connect(net::NodeId src_host, net::NodeId dst_host, std::uint16_t dst_port);

  /// Destroy a connection pair (both endpoints).
  void tcp_close(TcpConnection& endpoint);

  // --- UDP ----------------------------------------------------------------
  /// Bind a UDP socket; destroyed via its own destructor.
  std::shared_ptr<UdpSocket> udp_bind(net::NodeId host, std::uint16_t port);

  /// Attach telemetry (transport.tcp.* / transport.udp.* counters, bumped
  /// by every connection and socket on this stack).
  void set_obs(const obs::Scope& scope);

 private:
  friend class TcpConnection;
  friend class UdpSocket;

  void ensure_host_hooked(net::NodeId host);
  void dispatch(net::Packet&& pkt);
  void handle_tcp(net::Packet&& pkt);
  void handle_udp(net::Packet&& pkt);

  void register_tcp(const net::FlowKey& key, TcpConnection* conn);
  void unregister_tcp(const net::FlowKey& key);
  void unregister_udp(net::NodeId host, std::uint16_t port);

  net::Network& network_;
  std::unordered_map<net::FlowKey, TcpConnection*, net::FlowKeyHash> tcp_conns_;
  std::map<std::pair<net::NodeId, std::uint16_t>, AcceptFn> tcp_listeners_;
  std::map<std::pair<net::NodeId, std::uint16_t>, UdpSocket*> udp_socks_;
  std::map<net::NodeId, std::uint16_t> next_ephemeral_;
  std::vector<std::unique_ptr<TcpConnection>> owned_connections_;
  std::vector<bool> host_hooked_;
  bool delayed_ack_ = false;
  obs::Counter* c_tcp_connections_ = nullptr;
  obs::Counter* c_tcp_segments_ = nullptr;
  obs::Counter* c_tcp_retransmits_ = nullptr;
  obs::Counter* c_udp_datagrams_ = nullptr;
};

}  // namespace vw::transport
