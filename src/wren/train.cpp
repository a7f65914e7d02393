#include "wren/train.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace vw::wren {

TrainExtractor::TrainExtractor(net::FlowKey flow, TrainParams params, TrainFn on_train)
    : flow_(flow), params_(params), on_train_(std::move(on_train)) {
  VW_REQUIRE(params_.min_length >= 3, "TrainExtractor: min_length < 3, got ", params_.min_length);
  VW_REQUIRE(params_.spacing_tolerance >= 1.0, "TrainExtractor: spacing_tolerance < 1, got ",
             params_.spacing_tolerance);
}

double TrainExtractor::compute_isr(const std::vector<TrainPacket>& pkts) {
  // Bits carried after the first packet's departure, over the span between
  // first and last departures (the standard train-rate definition: the first
  // packet opens the window, subsequent bytes fill it).
  SimTime span = pkts.back().sent_at - pkts.front().sent_at;
  if (span <= 0) return 0.0;
  std::uint64_t bits = 0;
  for (std::size_t i = 1; i < pkts.size(); ++i) bits += pkts[i].wire_bytes * 8ull;
  return static_cast<double>(bits) / to_seconds(span);
}

void TrainExtractor::add(const PacketRecord& record) {
  if (record.is_ack && record.payload_bytes == 0) return;  // pure ACKs carry no data
  if (record.payload_bytes == 0) return;                   // SYN/FIN
  VW_REQUIRE(record.flow == flow_, "TrainExtractor: flow mismatch");

  const TrainPacket pkt{record.timestamp, record.seq + record.payload_bytes, record.wire_bytes};

  if (current_.empty()) {
    current_.push_back(pkt);
    min_gap_ = 0;
    max_gap_seen_ = 0;
    return;
  }

  // Records must arrive in departure order or every gap below is garbage.
  VW_REQUIRE(pkt.sent_at >= current_.back().sent_at,
             "TrainExtractor: record timestamps regressed (", pkt.sent_at, " < ",
             current_.back().sent_at, ")");
  const SimTime gap = pkt.sent_at - current_.back().sent_at;
  if (gap > kMaxTrainGap) {
    // Long silence: the run ends here.
    emit_if_valid();
    current_.clear();
    current_.push_back(pkt);
    min_gap_ = max_gap_seen_ = 0;
    return;
  }

  // Tentative new spacing bounds if this packet joins the run.
  const SimTime new_min = (current_.size() == 1) ? gap : std::min(min_gap_, gap);
  const SimTime new_max = (current_.size() == 1) ? gap : std::max(max_gap_seen_, gap);

  // Ratio test on the spacing spread; gaps are floored at 1 ns so that a
  // degenerate zero gap (instantaneous loopback) stays conservative.
  const auto lo = static_cast<double>(std::max<SimTime>(new_min, 1));
  const bool consistent = static_cast<double>(new_max) <= params_.spacing_tolerance * lo;

  if (consistent) {
    current_.push_back(pkt);
    min_gap_ = new_min;
    max_gap_seen_ = new_max;
    return;
  }

  // Spacing broke: emit the maximal run, then start a new run seeded with the
  // previous packet so adjacent trains share a boundary packet (no data is
  // wasted — "more measurements taken from less traffic").
  const TrainPacket seed = current_.back();
  emit_if_valid();
  current_.clear();
  current_.push_back(seed);
  current_.push_back(pkt);
  min_gap_ = max_gap_seen_ = gap;
}

void TrainExtractor::flush() {
  emit_if_valid();
  current_.clear();
  min_gap_ = max_gap_seen_ = 0;
}

void TrainExtractor::emit_if_valid() {
  if (current_.size() < params_.min_length) return;
  Train train;
  train.flow = flow_;
  train.packets = current_;
  train.start_time = current_.front().sent_at;
  train.end_time = current_.back().sent_at;
  train.isr_bps = compute_isr(current_);
  if (train.isr_bps <= 0) return;
  // What downstream SIC analysis assumes about every emitted train.
  VW_ENSURE(train.end_time > train.start_time, "TrainExtractor: emitted train spans no time");
  VW_AUDIT(std::is_sorted(train.packets.begin(), train.packets.end(),
                          [](const TrainPacket& a, const TrainPacket& b) {
                            return a.sent_at < b.sent_at;
                          }),
           "TrainExtractor: emitted train not in departure order");
  if (on_train_) on_train_(train);
}

}  // namespace vw::wren
