#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "util/time.hpp"
#include "wren/trace.hpp"

// Packet-train extraction — the heart of "free" measurement.
//
// Active SIC tools emit deliberately spaced probe trains; Wren instead scans
// the flow's naturally transmitted packets for maximal-length runs with
// consistent inter-departure spacing ("the new online tool scans for
// maximum-sized trains that can be formed using the collected traffic").
// Each such run yields an initial sending rate (ISR) sample.

namespace vw::wren {

/// One packet inside a train (what ACK matching needs).
struct TrainPacket {
  SimTime sent_at = 0;
  std::uint64_t seq_end = 0;  ///< stream offset one past this segment's last byte
  std::uint32_t wire_bytes = 0;
};

struct Train {
  net::FlowKey flow;
  std::vector<TrainPacket> packets;
  SimTime start_time = 0;  ///< departure of the first packet
  SimTime end_time = 0;    ///< departure of the last packet
  double isr_bps = 0;      ///< initial sending rate

  std::size_t length() const { return packets.size(); }
};

inline constexpr SimTime kMaxTrainGap = millis(20);  ///< larger inter-departure gap breaks a train
static_assert(kMaxTrainGap > 0, "TrainExtractor: max train gap must be positive");

struct TrainParams {
  std::size_t min_length = 5;      ///< shortest train worth analyzing
  double spacing_tolerance = 4.0;  ///< max_gap_in_train <= tol * min_gap_in_train
};

/// Online extractor for one direction of one flow. Feed it outgoing data
/// packet records in timestamp order; it emits maximal consistent trains
/// through the callback.
class TrainExtractor {
 public:
  using TrainFn = std::function<void(const Train&)>;

  TrainExtractor(net::FlowKey flow, TrainParams params, TrainFn on_train);

  /// Feed one outgoing data record (must match the flow, be non-ACK, carry
  /// payload, and be in non-decreasing timestamp order).
  void add(const PacketRecord& record);

  /// Force evaluation of the currently pending run (e.g. at end of trace).
  void flush();

 private:
  void emit_if_valid();
  static double compute_isr(const std::vector<TrainPacket>& pkts);

  net::FlowKey flow_;
  TrainParams params_;
  TrainFn on_train_;
  std::vector<TrainPacket> current_;
  SimTime min_gap_ = 0;
  SimTime max_gap_seen_ = 0;
};

}  // namespace vw::wren
