#include "transport/stack.hpp"

#include <stdexcept>

#include "transport/tcp.hpp"
#include "transport/udp.hpp"
#include "util/check.hpp"

namespace vw::transport {

TransportStack::TransportStack(net::Network& network) : network_(network) {
  host_hooked_.resize(network_.node_count(), false);
}

TransportStack::~TransportStack() = default;

void TransportStack::set_obs(const obs::Scope& scope) {
  c_tcp_connections_ = scope.counter("transport.tcp.connections");
  c_tcp_segments_ = scope.counter("transport.tcp.segments.sent");
  c_tcp_retransmits_ = scope.counter("transport.tcp.retransmits");
  c_udp_datagrams_ = scope.counter("transport.udp.datagrams");
}

void TransportStack::ensure_host_hooked(net::NodeId host) {
  if (host >= host_hooked_.size()) host_hooked_.resize(host + 1, false);
  if (host_hooked_[host]) return;
  network_.set_host_stack(host, [this](net::Packet&& pkt) { dispatch(std::move(pkt)); });
  host_hooked_[host] = true;
}

std::uint16_t TransportStack::ephemeral_port(net::NodeId host) {
  auto [it, inserted] = next_ephemeral_.try_emplace(host, 49152);
  if (it->second == 0) throw std::runtime_error("ephemeral port space exhausted");
  return it->second++;
}

void TransportStack::dispatch(net::Packet&& pkt) {
  switch (pkt.flow.proto) {
    case net::Protocol::kTcp: handle_tcp(std::move(pkt)); break;
    case net::Protocol::kUdp: handle_udp(std::move(pkt)); break;
    default: VW_UNREACHABLE("dispatch: unknown protocol ", static_cast<int>(pkt.flow.proto));
  }
}

void TransportStack::handle_udp(net::Packet&& pkt) {
  auto it = udp_socks_.find({pkt.flow.dst, pkt.flow.dst_port});
  if (it == udp_socks_.end()) return;  // no listener: drop
  it->second->handle_packet(std::move(pkt));
}

void TransportStack::handle_tcp(net::Packet&& pkt) {
  // The endpoint that should receive this packet sends on the reversed flow.
  const net::FlowKey key = pkt.flow.reversed();
  if (auto it = tcp_conns_.find(key); it != tcp_conns_.end()) {
    it->second->handle_packet(std::move(pkt));
    return;
  }
  // No endpoint: a SYN may create a server-side connection via a listener.
  if (pkt.syn && !pkt.is_ack) {
    auto lit = tcp_listeners_.find({pkt.flow.dst, pkt.flow.dst_port});
    if (lit == tcp_listeners_.end()) return;
    auto conn = std::unique_ptr<TcpConnection>(
        new TcpConnection(*this, key, /*is_client=*/false, delayed_ack_));
    TcpConnection* server = conn.get();
    owned_connections_.push_back(std::move(conn));
    register_tcp(key, server);
    // Wire the two endpoints for out-of-band message boundaries.
    if (auto pit = tcp_conns_.find(pkt.flow); pit != tcp_conns_.end()) {
      server->peer_attached(pit->second);
      pit->second->peer_attached(server);
    }
    lit->second(*server);
    server->handle_packet(std::move(pkt));
  }
}

void TransportStack::tcp_listen(net::NodeId host, std::uint16_t port, AcceptFn on_accept) {
  ensure_host_hooked(host);
  const bool fresh = tcp_listeners_.try_emplace({host, port}, std::move(on_accept)).second;
  VW_REQUIRE(fresh, "tcp_listen: port ", port, " already listening on host ", host);
}

void TransportStack::tcp_unlisten(net::NodeId host, std::uint16_t port) {
  tcp_listeners_.erase({host, port});
}

TcpConnection& TransportStack::tcp_connect(net::NodeId src_host, net::NodeId dst_host,
                                           std::uint16_t dst_port) {
  ensure_host_hooked(src_host);
  ensure_host_hooked(dst_host);
  const net::FlowKey key{src_host, dst_host, ephemeral_port(src_host), dst_port,
                         net::Protocol::kTcp};
  // Ephemeral allocation makes the flow key unique; a collision would let two
  // connections silently swallow each other's segments.
  VW_ASSERT(!tcp_conns_.contains(key), "tcp_connect: flow key already registered");
  auto conn = std::unique_ptr<TcpConnection>(
      new TcpConnection(*this, key, /*is_client=*/true, delayed_ack_));
  TcpConnection* client = conn.get();
  owned_connections_.push_back(std::move(conn));
  register_tcp(key, client);
  obs::add(c_tcp_connections_);
  client->send_syn(/*ack=*/false);
  return *client;
}

void TransportStack::tcp_close(TcpConnection& endpoint) {
  TcpConnection* peer = endpoint.peer_;
  endpoint.close();
  unregister_tcp(endpoint.flow());
  if (peer != nullptr) {
    peer->close();
    unregister_tcp(peer->flow());
    peer->peer_attached(nullptr);
  }
  endpoint.peer_attached(nullptr);
  std::erase_if(owned_connections_, [&](const auto& c) {
    return c.get() == &endpoint || c.get() == peer;
  });
}

void TransportStack::register_tcp(const net::FlowKey& key, TcpConnection* conn) {
  tcp_conns_[key] = conn;
}

void TransportStack::unregister_tcp(const net::FlowKey& key) { tcp_conns_.erase(key); }

std::shared_ptr<UdpSocket> TransportStack::udp_bind(net::NodeId host, std::uint16_t port) {
  ensure_host_hooked(host);
  VW_REQUIRE(!udp_socks_.contains({host, port}), "udp_bind: port ", port,
             " in use on host ", host);
  auto sock = std::shared_ptr<UdpSocket>(new UdpSocket(*this, host, port));
  udp_socks_[{host, port}] = sock.get();
  return sock;
}

void TransportStack::unregister_udp(net::NodeId host, std::uint16_t port) {
  udp_socks_.erase({host, port});
}

}  // namespace vw::transport
