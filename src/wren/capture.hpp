#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/scope.hpp"
#include "wren/trace_writer.hpp"

// One capture session = one directory of vw.trace.v1 shards, one TraceWriter
// (tap + buffered file sink) per captured host. This is the unit the
// --capture <dir> flags on examples/benches create: every tapped host gets
// shard file <dir>/trace_host<id>.vwtrace whose shard tag is the add order,
// and the whole corpus merges back into one time-ordered trace with
// vwcap-extract.

namespace vw::wren {

class CaptureSession {
 public:
  /// Creates `dir` (and parents) if needed; shards are written inside it.
  CaptureSession(net::Network& network, std::string dir);
  ~CaptureSession();

  CaptureSession(const CaptureSession&) = delete;
  CaptureSession& operator=(const CaptureSession&) = delete;

  /// Start capturing `host` into its own shard. The shard tag is the
  /// number of previously added hosts.
  TraceWriter& add_host(net::NodeId host);

  /// Forwarded to every current and future writer.
  void set_obs(const obs::Scope& scope);

  /// Finalize every shard (write buffered tails, patch headers).
  /// Idempotent; also run by the destructor.
  void finish();

  const std::string& dir() const { return dir_; }
  const std::vector<std::unique_ptr<TraceWriter>>& writers() const { return writers_; }

  /// Records captured across all shards.
  std::uint64_t records_captured() const;

 private:
  net::Network& network_;
  std::string dir_;
  obs::Scope scope_;
  std::vector<std::unique_ptr<TraceWriter>> writers_;
};

}  // namespace vw::wren
