#include "wren/trace_writer.hpp"

#include <stdexcept>
#include <utility>

namespace vw::wren {

TraceWriter::TraceWriter(net::Network& network, net::NodeId host, std::string path,
                         std::uint32_t shard)
    : network_(network), host_(host), path_(std::move(path)), shard_(shard) {
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) throw std::runtime_error("TraceWriter: cannot open " + path_);
  buffer_.reserve(kBufferBytes);
  // Placeholder header; finish() patches record_count in place.
  patch_header();
  tap_id_ = network_.add_host_tap(host_, [this](const net::TapEvent& ev) { on_tap(ev); });
  tap_installed_ = true;
}

TraceWriter::~TraceWriter() { finish(); }

void TraceWriter::set_obs(const obs::Scope& scope) {
  c_captured_ = scope.counter("wren.trace.writer.captured");
  c_bytes_ = scope.counter("wren.trace.writer.bytes");
}

void TraceWriter::on_tap(const net::TapEvent& ev) {
  const net::Packet& pkt = *ev.packet;
  if (pkt.flow.proto != net::Protocol::kTcp) return;  // Wren analyzes TCP only
  const auto rec = encode_record(PacketRecord{
      .timestamp = ev.timestamp,
      .direction = ev.direction,
      .flow = pkt.flow,
      .payload_bytes = pkt.payload_bytes,
      .wire_bytes = pkt.size_bytes(),
      .seq = pkt.seq,
      .ack = pkt.ack,
      .is_ack = pkt.is_ack,
      .syn = pkt.syn,
  });
  buffer_.insert(buffer_.end(), rec.begin(), rec.end());
  ++captured_;
  obs::add(c_captured_);
  if (buffer_.size() == kBufferBytes) flush_buffer();
}

void TraceWriter::flush_buffer() {
  out_.write(reinterpret_cast<const char*>(buffer_.data()),
             static_cast<std::streamsize>(buffer_.size()));
  obs::add(c_bytes_, buffer_.size());
  buffer_.clear();
}

void TraceWriter::finish() {
  if (finished_) return;
  if (tap_installed_) {
    network_.remove_host_tap(host_, tap_id_);
    tap_installed_ = false;
  }
  flush_buffer();
  patch_header();
  out_.close();
  finished_ = true;
}

void TraceWriter::patch_header() {
  TraceFileHeader header;
  header.host = host_;
  header.shard = shard_;
  header.record_count = captured_;
  const auto hdr = encode_header(header);
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(hdr.data()), static_cast<std::streamsize>(hdr.size()));
}

}  // namespace vw::wren
