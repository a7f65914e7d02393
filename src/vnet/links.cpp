#include "vnet/links.hpp"

#include <utility>

namespace vw::vnet {

TcpOverlayLink::TcpOverlayLink(transport::TcpConnection& conn) : conn_(conn) {
  conn_.set_on_message([this](std::uint64_t, const std::any& tag) {
    deliver(std::any_cast<FramePtr>(tag));
  });
}

TcpOverlayLink::~TcpOverlayLink() { conn_.set_on_message({}); }

void TcpOverlayLink::send(FramePtr frame) {
  const std::uint64_t bytes = frame->wire_bytes() + kEncapsulationBytes;
  conn_.send(bytes, std::any(std::move(frame)));
}

UdpOverlayLink::UdpOverlayLink(std::shared_ptr<transport::UdpSocket> socket,
                               net::NodeId peer_host, std::uint16_t peer_port)
    : socket_(std::move(socket)), peer_host_(peer_host), peer_port_(peer_port) {
  socket_->set_on_receive([this](net::Packet&& pkt) {
    if (!pkt.user_data) return;
    // The sender created user_data uniquely for this datagram, so the frame
    // pointer can be moved out: the only refcount traffic for the whole
    // end-to-end delivery is the send-side wrap.
    deliver(std::any_cast<FramePtr>(std::move(*pkt.user_data)));
  });
}

void UdpOverlayLink::send(FramePtr frame) {
  const std::uint32_t bytes = frame->wire_bytes() + kEncapsulationBytes;
  socket_->send_to(peer_host_, peer_port_, bytes,
                   std::make_shared<std::any>(std::move(frame)));
}

}  // namespace vw::vnet
