#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "net/packet.hpp"
#include "obs/scope.hpp"
#include "util/time.hpp"

// Wren's kernel packet trace facility.
//
// In the paper this is a kernel extension that timestamps every packet
// arrival/departure with high precision and exposes the headers to a
// user-level collector. Here it taps the simulated host NIC: outgoing
// records carry the NIC serialization-completion timestamp (the precise
// wire departure time the SIC analysis needs), incoming records the
// delivery timestamp.

namespace vw::wren {

struct PacketRecord {
  SimTime timestamp = 0;
  net::TapDirection direction = net::TapDirection::kOutgoing;
  net::FlowKey flow;
  std::uint32_t payload_bytes = 0;
  std::uint32_t wire_bytes = 0;  ///< payload + headers (what the link carried)
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  bool is_ack = false;
  bool syn = false;

  friend bool operator==(const PacketRecord&, const PacketRecord&) = default;
};

/// What Wren's analysis consumes ("filtered for useful observations"):
/// outgoing data segments feed train extraction, incoming pure ACKs feed
/// SIC. Every other record is noise to it.
inline bool is_outgoing_data(const PacketRecord& r) {
  return r.direction == net::TapDirection::kOutgoing && !r.is_ack && r.payload_bytes > 0;
}
inline bool is_incoming_ack(const PacketRecord& r) {
  return r.direction == net::TapDirection::kIncoming && r.is_ack && r.payload_bytes == 0;
}
inline bool is_useful(const PacketRecord& r) { return is_outgoing_data(r) || is_incoming_ack(r); }

/// Per-host header trace with a bounded ring buffer, drained by the
/// user-level analyzer via collect() — mirroring Wren's kernel/user split.
class TraceFacility {
 public:
  /// Taps `host` on `network`. Only TCP packets are recorded (Wren analyzes
  /// TCP flows); UDP is ignored at the tap to keep overhead negligible.
  /// `capacity` bounds how many records are held between two collect()
  /// calls; once that many are buffered, each new record drops the oldest.
  /// It is a bound, not a pre-allocation: the ring starts empty and grows
  /// with the traffic actually captured.
  TraceFacility(net::Network& network, net::NodeId host, std::size_t capacity = 1 << 16);
  ~TraceFacility();

  TraceFacility(const TraceFacility&) = delete;
  TraceFacility& operator=(const TraceFacility&) = delete;

  /// Drain all records accumulated since the previous collect().
  std::vector<PacketRecord> collect();

  /// Attach telemetry (wren.trace.captured / wren.trace.dropped counters
  /// plus the wren.trace.buffered occupancy gauge, updated on every capture
  /// and drain so ring occupancy is observable between collect() calls).
  void set_obs(const obs::Scope& scope);

  net::NodeId host() const { return host_; }
  std::uint64_t records_captured() const { return captured_; }
  std::uint64_t records_dropped() const { return dropped_; }
  std::size_t buffered() const { return ring_.size(); }

 private:
  void on_tap(const net::TapEvent& ev);

  net::Network& network_;
  net::NodeId host_;
  std::size_t capacity_;
  net::TapId tap_id_;
  // Ring bounded by `capacity_`. Until it is full, records are appended in
  // arrival order (head_ == 0) and the storage grows geometrically, so
  // memory follows the most records seen between two collect() calls.
  // Once full, `head_` is the oldest record and overflow overwrites it
  // (drop-oldest, like the kernel buffer Wren drains).
  std::vector<PacketRecord> ring_;
  std::size_t head_ = 0;
  std::uint64_t captured_ = 0;
  std::uint64_t dropped_ = 0;
  obs::Counter* c_captured_ = nullptr;
  obs::Counter* c_dropped_ = nullptr;
  obs::Gauge* g_buffered_ = nullptr;
};

}  // namespace vw::wren
