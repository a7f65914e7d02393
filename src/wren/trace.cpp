#include "wren/trace.hpp"

#include <algorithm>
#include <cstddef>

#include "util/check.hpp"

namespace vw::wren {

TraceFacility::TraceFacility(net::Network& network, net::NodeId host, std::size_t capacity)
    : network_(network), host_(host), capacity_(capacity) {
  VW_REQUIRE(capacity_ > 0, "TraceFacility: capacity must be positive");
  tap_id_ = network_.add_host_tap(host, [this](const net::TapEvent& ev) { on_tap(ev); });
}

TraceFacility::~TraceFacility() { network_.remove_host_tap(host_, tap_id_); }

void TraceFacility::set_obs(const obs::Scope& scope) {
  c_captured_ = scope.counter("wren.trace.captured");
  c_dropped_ = scope.counter("wren.trace.dropped");
  g_buffered_ = scope.gauge("wren.trace.buffered");
  obs::set(g_buffered_, static_cast<double>(ring_.size()));
}

void TraceFacility::on_tap(const net::TapEvent& ev) {
  const net::Packet& pkt = *ev.packet;
  if (pkt.flow.proto != net::Protocol::kTcp) return;
  const PacketRecord rec{
      .timestamp = ev.timestamp,
      .direction = ev.direction,
      .flow = pkt.flow,
      .payload_bytes = pkt.payload_bytes,
      .wire_bytes = pkt.size_bytes(),
      .seq = pkt.seq,
      .ack = pkt.ack,
      .is_ack = pkt.is_ack,
      .syn = pkt.syn,
  };
  if (ring_.size() < capacity_) {
    // Not full: append in arrival order. A growth step doubles the storage
    // (at least 64 records, i.e. one 4 KiB page) up to the bound.
    if (ring_.size() == ring_.capacity()) {
      ring_.reserve(std::min(capacity_, std::max<std::size_t>(64, 2 * ring_.capacity())));
    }
    ring_.push_back(rec);
  } else {
    // Full: overwrite the oldest record in place (drop-oldest semantics).
    ring_[head_] = rec;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    ++dropped_;
    obs::add(c_dropped_);
  }
  ++captured_;
  obs::add(c_captured_);
  obs::set(g_buffered_, static_cast<double>(ring_.size()));
}

std::vector<PacketRecord> TraceFacility::collect() {
  // Oldest first: [head_, end) then [0, head_); head_ is 0 unless full.
  const auto head = ring_.begin() + static_cast<std::ptrdiff_t>(head_);
  std::vector<PacketRecord> out;
  out.reserve(ring_.size());
  out.insert(out.end(), head, ring_.end());
  out.insert(out.end(), ring_.begin(), head);
  ring_.clear();  // keeps the storage for the next interval
  head_ = 0;
  obs::set(g_buffered_, 0.0);
  return out;
}

}  // namespace vw::wren
