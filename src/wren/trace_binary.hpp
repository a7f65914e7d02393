#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "wren/trace.hpp"

// The vw.trace.v1 compact binary trace format, the repository's one trace
// format: capture shards and offline archives both use it. High-rate
// capture wants a fixed-size layout the shard sink can encode straight into
// its buffer. Layout
// (everything little-endian, regardless of host byte order):
//
//   file header, 64 bytes:
//     [ 0] u64 magic          "VWTRACE1" (0x3145434152545756 LE)
//     [ 8] u32 version        1
//     [12] u32 record_size    48 (readers reject any other value)
//     [16] u32 host           capturing NodeId
//     [20] u32 shard          capture shard / NIC tag
//     [24] u64 record_count   records in the file (patched at finalize)
//     [32] u64 dropped        capture-time drops: 0 from the shard sink; kept
//                             for format stability (older shards may carry
//                             a count, and readers still accept it)
//     [40] u8[24] reserved    zero
//
//   record, 48 bytes:
//     [ 0] i64 timestamp      SimTime, nanoseconds
//     [ 8] u64 seq
//     [16] u64 ack
//     [24] u32 src            FlowKey.src
//     [28] u32 dst            FlowKey.dst
//     [32] u32 payload_bytes
//     [36] u32 wire_bytes
//     [40] u16 src_port
//     [42] u16 dst_port
//     [44] u8  direction      0 = outgoing, 1 = incoming
//     [45] u8  flags          bit0 is_ack, bit1 syn
//     [46] u16 reserved       zero
//
// Malformed input (short header, bad magic, unknown version, wrong record
// size, truncated record, record_count mismatch) throws std::runtime_error
// with a message naming the defect and file offset.

namespace vw::wren {

inline constexpr std::uint64_t kTraceMagic = 0x3145434152545756ull;  // "VWTRACE1"
inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::size_t kTraceHeaderSize = 64;

/// File-level capture metadata carried by the vw.trace.v1 header.
struct TraceFileHeader {
  net::NodeId host = net::kInvalidNode;  ///< capturing host
  std::uint32_t shard = 0;               ///< capture shard / NIC tag
  std::uint64_t record_count = 0;
  std::uint64_t dropped = 0;  ///< 0 from the shard sink; kept for format stability
};

/// Encode one record / header into its fixed-size wire image.
std::array<unsigned char, kTraceRecordSize> encode_record(const PacketRecord& r);
std::array<unsigned char, kTraceHeaderSize> encode_header(const TraceFileHeader& h);

/// Decode counterparts; `decode_record` trusts the caller for bounds.
PacketRecord decode_record(const unsigned char* buf);
TraceFileHeader decode_header(const unsigned char* buf);  ///< throws on bad magic/version

/// Write a complete vw.trace.v1 file: header (with record_count filled in)
/// followed by the records. Host/shard/dropped come from `header`.
void write_trace_binary(std::ostream& out, const TraceFileHeader& header,
                        const std::vector<PacketRecord>& records);

struct BinaryTrace {
  TraceFileHeader header;
  std::vector<PacketRecord> records;
};

/// Parse a vw.trace.v1 stream; throws std::runtime_error on any corruption
/// (bad magic, future version, wrong record size, truncation, count
/// mismatch, trailing bytes).
BinaryTrace read_trace_binary(std::istream& in);

/// Convenience: read just the records of a vw.trace.v1 file at `path`.
BinaryTrace read_trace_binary_file(const std::string& path);

}  // namespace vw::wren
