#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "transport/meter.hpp"
#include "transport/stack.hpp"
#include "transport/tcp.hpp"
#include "transport/udp.hpp"
#include "util/rng.hpp"

// Workload generators reproducing the paper's traffic. Each generator may be
// destroyed while the simulator keeps running: it cancels its pending event
// and closes the connection pair it opened.
//
//  * CbrUdpSource — iperf-style constant-bit-rate UDP (Figure 2 cross traffic)
//  * OnOffTcpSource — bursty on/off TCP (Figure 3 cross traffic)
//  * MessageSource — the monitored application: scripted message sizes with
//    fixed or random inter-message spacing (Figures 2 and 3)
//  * TcpSink — accepting endpoint that meters delivered bytes
//  * BulkTcpSource — ttcp/iperf-style bulk TCP transfer (Figure 6 table)

namespace vw::transport {

/// Listens on (host, port), accepts any number of connections, meters bytes.
/// The accepted connections call back into the sink, so whoever opened
/// them closes them (TransportStack::tcp_close) before the sink goes.
class TcpSink {
 public:
  TcpSink(TransportStack& stack, net::NodeId host, std::uint16_t port);
  ~TcpSink();

  TcpSink(const TcpSink&) = delete;
  TcpSink& operator=(const TcpSink&) = delete;

  const RateMeter& meter() const { return meter_; }
  std::uint64_t messages_received() const { return messages_; }
  std::uint64_t bytes_received() const { return meter_.total_bytes(); }
  net::NodeId host() const { return host_; }
  std::uint16_t port() const { return port_; }

 private:
  TransportStack& stack_;
  net::NodeId host_;
  std::uint16_t port_;
  RateMeter meter_;
  std::uint64_t messages_ = 0;
  std::unordered_map<TcpConnection*, std::uint64_t> last_delivered_;
};

/// iperf-style UDP constant bit rate generator. Departures carry a small
/// uniform jitter (default +/-10% of the interval, mean preserved), like a
/// real userspace sender subject to OS scheduling — perfectly periodic
/// packets are a measurement-hostile artifact no real generator produces.
class CbrUdpSource {
 public:
  CbrUdpSource(TransportStack& stack, net::NodeId src, net::NodeId dst, std::uint16_t dst_port,
               double rate_bps, std::uint32_t datagram_bytes = 1000,
               double jitter_fraction = 0.1, Rng rng = Rng(0x9e3779b9));
  ~CbrUdpSource();

  void start();
  void stop();
  /// Change the rate (0 pauses); takes effect at the next datagram.
  void set_rate_bps(double rate_bps);
  double rate_bps() const { return rate_bps_; }
  std::uint64_t datagrams_sent() const { return sent_; }

 private:
  void tick();
  SimTime interval() const;

  TransportStack& stack_;
  sim::Simulator& sim_;
  net::NodeId dst_;
  std::uint16_t dst_port_;
  double rate_bps_;
  std::uint32_t datagram_bytes_;
  double jitter_fraction_;
  Rng rng_;
  std::shared_ptr<UdpSocket> socket_;
  std::shared_ptr<UdpSocket> sink_;
  sim::EventHandle pending_;
  bool running_ = false;
  std::uint64_t sent_ = 0;
};

/// On/off TCP generator: exponential ON and OFF periods; during ON, writes
/// chunks paced at `peak_rate_bps` into a TCP connection.
class OnOffTcpSource {
 public:
  OnOffTcpSource(TransportStack& stack, net::NodeId src, net::NodeId dst, std::uint16_t dst_port,
                 double peak_rate_bps, SimTime mean_on, SimTime mean_off, Rng rng);
  ~OnOffTcpSource();

  void start();
  void stop();
  std::uint64_t bytes_written() const { return written_; }
  const TcpSink& sink() const { return *sink_; }

 private:
  void enter_on();
  void enter_off();
  void write_chunk();

  TransportStack& stack_;
  sim::Simulator& sim_;
  double peak_rate_bps_;
  SimTime mean_on_;
  SimTime mean_off_;
  Rng rng_;
  std::unique_ptr<TcpSink> sink_;
  TcpConnection* conn_ = nullptr;
  sim::EventHandle pending_;
  bool running_ = false;
  bool in_on_ = false;
  SimTime on_ends_ = 0;
  std::uint64_t written_ = 0;
  static constexpr std::uint32_t kChunkBytes = 16 * 1024;
};

/// One phase of the monitored application's scripted behaviour.
struct MessagePhase {
  std::uint32_t count = 0;          ///< messages in this phase
  std::uint64_t message_bytes = 0;  ///< size of each message
  SimTime spacing = 0;              ///< inter-message spacing (fixed)
  SimTime pause_after = 0;          ///< idle time after the phase
  bool random_spacing = false;      ///< spacing ~ U(0, 2*spacing) when set
};

/// The application Wren monitors: sends scripted messages over one TCP
/// connection; the receiving side is metered by an internal TcpSink.
class MessageSource {
 public:
  MessageSource(TransportStack& stack, net::NodeId src, net::NodeId dst, std::uint16_t dst_port,
                std::vector<MessagePhase> phases, std::uint32_t repeat = 1,
                Rng rng = Rng(0));
  ~MessageSource();

  void start();
  bool finished() const { return finished_; }
  const TcpSink& sink() const { return *sink_; }
  TcpConnection& connection() { return *conn_; }
  std::uint64_t messages_sent() const { return sent_; }

 private:
  void send_next();

  TransportStack& stack_;
  sim::Simulator& sim_;
  std::vector<MessagePhase> phases_;
  std::uint32_t repeat_;
  Rng rng_;
  std::unique_ptr<TcpSink> sink_;
  TcpConnection* conn_ = nullptr;
  std::uint32_t phase_idx_ = 0;
  std::uint32_t in_phase_ = 0;
  std::uint32_t rep_ = 0;
  std::uint64_t sent_ = 0;
  sim::EventHandle pending_;
  bool finished_ = false;
};

/// ttcp-style bulk transfer: keeps `window_bytes` of unsent data buffered
/// until stopped; measures achieved throughput at the sink.
class BulkTcpSource {
 public:
  BulkTcpSource(TransportStack& stack, net::NodeId src, net::NodeId dst, std::uint16_t dst_port);
  ~BulkTcpSource();

  void start();
  void stop();
  /// Delivered throughput over [t0, t1].
  double throughput_bps(SimTime t0, SimTime t1) const { return sink_->meter().average_bps(t0, t1); }
  const TcpSink& sink() const { return *sink_; }

 private:
  void top_up();

  TransportStack& stack_;
  sim::Simulator& sim_;
  std::unique_ptr<TcpSink> sink_;
  TcpConnection* conn_ = nullptr;
  sim::EventHandle pending_;
  bool running_ = false;
  static constexpr std::uint64_t kWriteChunk = 256 * 1024;
};

}  // namespace vw::transport
