#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/scope.hpp"
#include "wren/trace_binary.hpp"

// The capture datapath: a host tap that persists every TCP header record to
// a vw.trace.v1 shard file. Everything runs on the simulation thread, inside
// the tap callback:
//
//   tap callback → PacketRecord → encode into buffer_ ──(full)──▶ ofstream
//                                                                 │
//                                            <dir>/trace_host<id>.vwtrace
//
// The buffer is reserved once at construction and written out whenever it
// fills, so the per-packet cost is one 48-byte encode and the file sees one
// large write per ~5,400 records. Capture is lossless by construction: there
// is no queue to overflow, so the shard header's `dropped` field is always 0.
//
// finish() (or the destructor) removes the tap, writes the buffered tail,
// and patches the header's record count — a shard is a valid vw.trace.v1
// file only after finish().

namespace vw::wren {

class TraceWriter {
 public:
  /// Encode buffer size: ~256 KiB, a whole number of records so a write
  /// never splits one.
  static constexpr std::size_t kBufferBytes = 256 * 1024 / kTraceRecordSize * kTraceRecordSize;

  /// Taps `host` and streams its TCP header records to `path`, tagging the
  /// file header with `shard`. The file is created immediately; throws
  /// std::runtime_error when it cannot be.
  TraceWriter(net::Network& network, net::NodeId host, std::string path,
              std::uint32_t shard = 0);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Attach telemetry (wren.trace.writer.captured/bytes counters).
  /// Instruments are shared across writers — per-shard numbers live in the
  /// shard headers.
  void set_obs(const obs::Scope& scope);

  /// Stop capturing, write the buffered tail, and patch the shard header
  /// with the final record count. Idempotent.
  void finish();

  net::NodeId host() const { return host_; }
  const std::string& path() const { return path_; }
  std::uint64_t records_captured() const { return captured_; }
  bool finished() const { return finished_; }

 private:
  void on_tap(const net::TapEvent& ev);
  void flush_buffer();
  void patch_header();

  net::Network& network_;
  net::NodeId host_;
  std::string path_;
  std::uint32_t shard_;
  std::vector<unsigned char> buffer_;  ///< encoded records not yet written
  std::ofstream out_;
  net::TapId tap_id_ = 0;
  bool tap_installed_ = false;
  bool finished_ = false;
  std::uint64_t captured_ = 0;

  obs::Counter* c_captured_ = nullptr;
  obs::Counter* c_bytes_ = nullptr;
};

}  // namespace vw::wren
