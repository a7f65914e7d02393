#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "obs/scope.hpp"
#include "soap/xml.hpp"
#include "transport/stack.hpp"
#include "transport/tcp.hpp"

// The VNET control plane: each daemon holds a TCP control connection to the
// Proxy and ships XML report messages upstream ("each VNET daemon
// periodically sends its inferred local traffic matrix to the VNET daemon
// on the Proxy"). The Proxy dispatches arriving documents to handlers by
// root element name. Reports from the Proxy host itself short-circuit
// (same daemon); everything else crosses the simulated network and pays
// real latency and bandwidth.
//
// Delivery robustness: the daemon side monitors each control connection
// (periodic health checks detect a closed socket, a handshake that never
// completes, or acknowledged-byte progress stalling with data in flight),
// tears a sick connection down, and reconnects with exponential backoff. A
// bounded per-daemon resend window keeps recent reports alive across the
// outage and replays the unacknowledged suffix on the fresh connection.
// Delivery is at-least-once: a message whose bytes landed but which was not
// yet pruned from the window (pruning waits for a health check to see the
// ACK) is replayed after a reconnect. Wren reports and regional summaries
// are state snapshots, so a replay is harmless; a VttifUpdate is not (it
// carries per-interval counts that the Proxy adds into its current slot,
// so a replayed one is counted twice). When the window overflows the
// oldest message is dropped and counted (drops); an eviction of one that
// was never acknowledged is also counted as a window gap. FIFO eviction
// keeps the newest messages, so a daemon's newest snapshot always survives
// the outage; the one stream that needs more, sampled federation summaries,
// is healed at the root, which proves the loss through its per-region
// sequence numbers (DESIGN.md §5i).

namespace vw::vnet {

inline constexpr SimTime kHealthCheckPeriod = millis(500);  ///< connection-health poll
inline constexpr SimTime kBackoffMax = seconds(30.0);        ///< reconnect backoff ceiling
inline constexpr double kBackoffFactor = 2.0;                ///< exponential backoff growth
static_assert(kBackoffFactor >= 1.0, "ControlPlane: backoff factor must be >= 1");
inline constexpr SimTime kConnectTimeout = seconds(10.0);  ///< handshake must finish by then
inline constexpr std::size_t kResendWindow = 64;  ///< per-daemon messages kept for resend
static_assert(kResendWindow >= 1, "ControlPlane: resend window must hold >= 1 message");

/// Delivery robustness settings; the health-check poll, connect timeout,
/// resend window and the backoff ceiling and growth are the fixed
/// kHealthCheckPeriod, kConnectTimeout, kResendWindow, kBackoffMax and
/// kBackoffFactor.
struct ControlPlaneParams {
  SimTime send_timeout = seconds(5.0);    ///< unacked data w/o progress => stall
  SimTime backoff_initial = millis(500);  ///< first reconnect delay
};

class ControlPlane {
 public:
  using HandlerFn = std::function<void(const soap::XmlNode& message)>;

  /// Listens for daemon control connections on (proxy_host, port).
  ControlPlane(transport::TransportStack& stack, net::NodeId proxy_host,
               std::uint16_t port = 9001, ControlPlaneParams params = {});
  ~ControlPlane();

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// Proxy side: handle messages whose root element is `root_name`. A
  /// handler signals a message whose fields do not decode by throwing
  /// std::runtime_error; the message then counts as a parse failure.
  void register_handler(const std::string& root_name, HandlerFn handler);

  /// Daemon side: send `message` from `host` to the Proxy. Establishes the
  /// host's control connection on first use; while the connection is down
  /// the message waits in the resend window and rides the next reconnect.
  /// Messages from the Proxy host dispatch immediately without touching the
  /// network.
  void send(net::NodeId host, const soap::XmlNode& message);

  /// Messages a registered handler accepted.
  std::uint64_t messages_delivered() const { return delivered_; }
  /// Serialized bytes of delivered messages whose root element was
  /// `root_name` (per-stream traffic accounting, e.g. the federation
  /// bench's summary-vs-report ratio).
  std::uint64_t delivered_bytes(const std::string& root_name) const;
  /// Messages that parsed but matched no handler (silently ignored types).
  std::uint64_t messages_unhandled() const { return unhandled_; }
  /// Messages dropped because their XML did not parse or a handler could
  /// not decode them.
  std::uint64_t parse_failures() const { return parse_failures_; }
  /// Wire bytes of serialized reports sent over the network (control-plane
  /// overhead, §3.4), including resends.
  std::uint64_t bytes_shipped() const { return bytes_shipped_; }

  // --- failure-handling introspection ----------------------------------------
  /// Connections torn down after a detected failure (close/stall/timeout).
  std::uint64_t disconnects() const { return disconnects_; }
  /// Replacement connections that completed their handshake.
  std::uint64_t reconnects() const { return reconnects_; }
  std::uint64_t reconnect_attempts() const { return reconnect_attempts_; }
  /// Messages re-shipped on a replacement connection.
  std::uint64_t messages_resent() const { return resends_; }
  /// Messages evicted from a full resend window (lost to the outage).
  std::uint64_t messages_dropped() const { return drops_; }
  /// The subset of evictions not yet acknowledged: messages the Proxy may
  /// never see (newer messages in the window stand in for them).
  std::uint64_t window_gaps() const { return window_gaps_; }
  /// Whether `host`'s control connection is currently established.
  bool connection_healthy(net::NodeId host) const;

  const ControlPlaneParams& params() const { return params_; }

  /// Attach telemetry (vnet.control.* counters).
  void set_obs(const obs::Scope& scope);

 private:
  struct OutboundMessage {
    std::string doc;
    std::uint64_t end_offset = 0;  ///< stream offset on the current conn; 0 = unsent
    std::uint32_t attempts = 0;    ///< transmissions so far (resend accounting)
  };

  struct ClientState {
    transport::TcpConnection* conn = nullptr;
    std::deque<OutboundMessage> window;  ///< unacked + queued, FIFO, bounded
    SimTime backoff = 0;                 ///< current reconnect delay (0 = healthy)
    sim::EventHandle reconnect_timer;
    SimTime attempt_started = 0;
    SimTime last_progress = 0;
    std::uint64_t last_acked = 0;
    bool ever_established = false;
  };

  sim::Simulator& sim() { return stack_.simulator(); }
  void dispatch(const std::string& doc);
  void transmit(ClientState& state, OutboundMessage& msg);
  void attempt_connect(net::NodeId host);
  void fail_connection(net::NodeId host, ClientState& state);
  void schedule_reconnect(net::NodeId host, ClientState& state);
  void health_tick();

  transport::TransportStack& stack_;
  net::NodeId proxy_host_;
  std::uint16_t port_;
  ControlPlaneParams params_;
  std::map<std::string, HandlerFn> handlers_;
  std::map<net::NodeId, ClientState> clients_;
  std::unique_ptr<sim::PeriodicTask> health_task_;
  std::map<std::string, std::uint64_t> delivered_bytes_by_type_;
  std::uint64_t delivered_ = 0;
  std::uint64_t unhandled_ = 0;
  std::uint64_t parse_failures_ = 0;
  std::uint64_t bytes_shipped_ = 0;
  std::uint64_t disconnects_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t reconnect_attempts_ = 0;
  std::uint64_t resends_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t window_gaps_ = 0;
  obs::Counter* c_delivered_ = nullptr;
  obs::Counter* c_unhandled_ = nullptr;
  obs::Counter* c_parse_failures_ = nullptr;
  obs::Counter* c_disconnects_ = nullptr;
  obs::Counter* c_reconnects_ = nullptr;
  obs::Counter* c_reconnect_attempts_ = nullptr;
  obs::Counter* c_resends_ = nullptr;
  obs::Counter* c_drops_ = nullptr;
  obs::Counter* c_window_gaps_ = nullptr;
};

}  // namespace vw::vnet
