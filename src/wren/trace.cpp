#include "wren/trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util/check.hpp"
#include "wren/trace_binary.hpp"

namespace vw::wren {

// The shard sink, all of it on the simulation thread: each record is
// encoded into a buffer reserved once at open, and the buffer goes to the
// file whenever it fills, so the per-packet cost is one 48-byte encode and
// the file sees one large write per ~5,400 records. There is no queue to
// overflow, so the header's `dropped` field is always 0.
struct TraceFacility::Shard {
  std::string path;
  TraceFileHeader header;  ///< record_count is the running count
  std::ofstream out;
  std::vector<unsigned char> buffer;
  obs::Counter* c_captured = nullptr;
  obs::Counter* c_bytes = nullptr;
  obs::Counter* c_failed = nullptr;

  void set_obs(const obs::Scope& scope) {
    c_captured = scope.counter("wren.trace.writer.captured");
    c_bytes = scope.counter("wren.trace.writer.bytes");
    c_failed = scope.counter("wren.trace.writer.failed");
  }

  void append(const PacketRecord& rec) {
    const auto image = encode_record(rec);
    buffer.insert(buffer.end(), image.begin(), image.end());
    ++header.record_count;
    obs::add(c_captured);
    if (buffer.size() == kShardBufferBytes) flush();
  }

  void flush() {
    out.write(reinterpret_cast<const char*>(buffer.data()),
              static_cast<std::streamsize>(buffer.size()));
    obs::add(c_bytes, buffer.size());
    buffer.clear();
  }

  void write_header() {
    const auto image = encode_header(header);
    out.seekp(0);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }

  /// Writes the tail, patches the header and closes the file; false, and
  /// counted in wren.trace.writer.failed, when any write since open failed.
  /// The stream's error bits are sticky, so one check after close() covers
  /// every buffer write, the tail and the header patch.
  bool close() {
    flush();
    write_header();
    out.close();
    if (!out.fail()) return true;
    obs::add(c_failed);
    return false;
  }
};

TraceFacility::TraceFacility(net::Network& network, net::NodeId host, std::size_t capacity)
    : network_(network), host_(host), capacity_(capacity) {
  VW_REQUIRE(capacity_ > 0, "TraceFacility: capacity must be positive");
  tap_id_ = network_.add_host_tap(host, [this](const net::TapEvent& ev) { on_tap(ev); });
}

TraceFacility::~TraceFacility() {
  if (shard_) network_.settle_host(host_);  // the shard holds every record up to now
  network_.remove_host_tap(host_, tap_id_);
  if (shard_) shard_->close();  // an implicit finish never throws; a failure is counted
}

void TraceFacility::set_obs(const obs::Scope& scope) {
  scope_ = scope;
  c_captured_ = scope.counter("wren.trace.captured");
  c_dropped_ = scope.counter("wren.trace.dropped");
  g_buffered_ = scope.gauge("wren.trace.buffered");
  obs::set(g_buffered_, static_cast<double>(ring_.size()));
  if (shard_) shard_->set_obs(scope);
}

void TraceFacility::capture_to(const std::string& path, std::uint32_t shard) {
  VW_REQUIRE(!shard_, "TraceFacility: host ", host_, " already captures to a shard");
  auto sink = std::make_unique<Shard>();
  sink->path = path;
  sink->header.host = host_;
  sink->header.shard = shard;
  sink->out.open(path, std::ios::binary | std::ios::trunc);
  if (!sink->out) throw std::runtime_error("TraceFacility: cannot open shard " + path);
  sink->buffer.reserve(kShardBufferBytes);
  sink->write_header();  // placeholder; finish_capture() patches record_count
  sink->set_obs(scope_);
  shard_ = std::move(sink);
}

std::uint64_t TraceFacility::finish_capture() {
  if (!shard_) return shard_records_;
  network_.settle_host(host_);
  const std::unique_ptr<Shard> shard = std::move(shard_);
  shard_records_ = shard->header.record_count;
  if (!shard->close()) {
    throw std::runtime_error("TraceFacility: failed to write shard " + shard->path);
  }
  return shard_records_;
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
  if (shard_) shard_->append(rec);  // before the ring: the shard is lossless
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
  std::vector<PacketRecord> out;
  out.reserve(buffered());
  drain([&out](const PacketRecord& rec) { out.push_back(rec); });
  return out;
}

}  // namespace vw::wren
