#pragma once

#include <cstdint>
#include <memory>
#include <string>
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
//
// The facility is the host's one trace tap. Besides the ring the analyzer
// drains, it can stream every record it takes to a vw.trace.v1 shard file
// (capture_to), the paper's "transmitted to a remote repository" path for
// offline analysis:
//
//   tap ─▶ PacketRecord ─┬─▶ encode into shard buffer ──(full)──▶ shard file
//                        └─▶ ring (drop-oldest) ──▶ collect()

namespace vw::wren {

/// Bytes per encoded vw.trace.v1 record (layout in trace_binary.hpp).
inline constexpr std::size_t kTraceRecordSize = 48;

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

  /// Shard encode buffer: ~256 KiB, a whole number of records so a write
  /// never splits one.
  static constexpr std::size_t kShardBufferBytes =
      256 * 1024 / kTraceRecordSize * kTraceRecordSize;

  /// Drain all records accumulated since the previous drain: every packet
  /// the host sent or received up to now(), in time order.
  std::vector<PacketRecord> collect();

  /// collect() without the copy: hands each record, oldest first, to `fn`
  /// and empties the ring in place. `fn` must not send packets. Returns the
  /// number of records drained.
  template <class Fn>
  std::size_t drain(Fn&& fn) {
    network_.settle_host(host_);
    // Oldest first: [head_, end) then [0, head_); head_ is 0 unless full.
    const std::size_t n = ring_.size();
    for (std::size_t i = head_; i < n; ++i) fn(ring_[i]);
    for (std::size_t i = 0; i < head_; ++i) fn(ring_[i]);
    ring_.clear();  // keeps the storage for the next interval
    head_ = 0;
    obs::set(g_buffered_, 0.0);
    return n;
  }

  /// Also persist every record captured from now on to a vw.trace.v1 shard
  /// at `path`, tagged `shard` in the file header. The shard is lossless:
  /// each record is encoded before it enters the ring, so ring drops never
  /// reach it. Throws std::runtime_error when the file cannot be created.
  /// At most one shard is open at a time.
  void capture_to(const std::string& path, std::uint32_t shard = 0);

  /// Stop capturing to the shard, write its buffered tail and patch the
  /// header's record count; a shard is a valid vw.trace.v1 file only after
  /// this. Returns the records the shard holds (0 without capture_to).
  /// Idempotent; the destructor runs it too, but only this explicit call
  /// reports a failed write, by throwing std::runtime_error naming the path.
  /// Either way a failed shard counts in wren.trace.writer.failed.
  std::uint64_t finish_capture();

  /// Attach telemetry (wren.trace.captured / wren.trace.dropped counters
  /// plus the wren.trace.buffered occupancy gauge, updated on every capture
  /// and drain so ring occupancy is observable between collect() calls).
  /// A shard adds wren.trace.writer.captured/bytes/failed, resolved only
  /// once one is opened; per-shard numbers live in the shard headers.
  void set_obs(const obs::Scope& scope);

  // The readers below settle the host's links first (net::Network::
  // settle_host), so they count every packet that left the host by now.
  net::NodeId host() const { return host_; }
  std::uint64_t records_captured() const {
    network_.settle_host(host_);
    return captured_;
  }
  std::uint64_t records_dropped() const {
    network_.settle_host(host_);
    return dropped_;
  }
  std::size_t buffered() const {
    network_.settle_host(host_);
    return ring_.size();
  }

 private:
  struct Shard;

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
  obs::Scope scope_;
  // The open shard sink, null without capture_to() and after
  // finish_capture(); `shard_records_` is what the last one persisted.
  std::unique_ptr<Shard> shard_;
  std::uint64_t shard_records_ = 0;
};

}  // namespace vw::wren
