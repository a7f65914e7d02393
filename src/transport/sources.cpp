#include "transport/sources.hpp"

#include <stdexcept>

namespace vw::transport {

// --- TcpSink -----------------------------------------------------------------

TcpSink::TcpSink(TransportStack& stack, net::NodeId host, std::uint16_t port)
    : stack_(stack), host_(host), port_(port) {
  stack_.tcp_listen(host, port, [this](TcpConnection& conn) {
    conn.set_on_message([this](std::uint64_t, const std::any&) { ++messages_; });
    conn.set_on_delivered([this, &conn](std::uint64_t total) {
      // Meter the per-connection delta; connections are independent streams.
      std::uint64_t& last = last_delivered_[&conn];
      const std::uint64_t delta = total - last;
      last = total;
      meter_.add(stack_.simulator().now(), delta);
    });
  });
}

TcpSink::~TcpSink() { stack_.tcp_unlisten(host_, port_); }

// --- CbrUdpSource ---------------------------------------------------------

CbrUdpSource::CbrUdpSource(TransportStack& stack, net::NodeId src, net::NodeId dst,
                           std::uint16_t dst_port, double rate_bps, std::uint32_t datagram_bytes,
                           double jitter_fraction, Rng rng)
    : stack_(stack),
      sim_(stack.simulator()),
      dst_(dst),
      dst_port_(dst_port),
      rate_bps_(rate_bps),
      datagram_bytes_(datagram_bytes),
      jitter_fraction_(jitter_fraction),
      rng_(rng) {
  socket_ = stack_.udp_bind(src, stack_.ephemeral_port(src));
  sink_ = stack_.udp_bind(dst, dst_port);
}

CbrUdpSource::~CbrUdpSource() { stop(); }

SimTime CbrUdpSource::interval() const {
  return seconds(static_cast<double>(datagram_bytes_) * 8.0 / rate_bps_);
}

void CbrUdpSource::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void CbrUdpSource::stop() {
  running_ = false;
  if (pending_.valid()) {
    sim_.cancel(pending_);
    pending_ = sim::EventHandle{};
  }
}

void CbrUdpSource::set_rate_bps(double rate_bps) {
  rate_bps_ = rate_bps;
  if (running_ && rate_bps_ > 0 && !pending_.valid()) tick();
}

void CbrUdpSource::tick() {
  pending_ = sim::EventHandle{};
  if (!running_) return;
  if (rate_bps_ <= 0) return;  // paused; set_rate_bps restarts
  socket_->send_to(dst_, dst_port_, datagram_bytes_);
  ++sent_;
  SimTime next = interval();
  if (jitter_fraction_ > 0) {
    next = seconds(to_seconds(next) *
                   rng_.uniform(1.0 - jitter_fraction_, 1.0 + jitter_fraction_));
  }
  pending_ = sim_.schedule_in(next, [this] { tick(); });
}

// --- OnOffTcpSource ---------------------------------------------------------

OnOffTcpSource::OnOffTcpSource(TransportStack& stack, net::NodeId src, net::NodeId dst,
                               std::uint16_t dst_port, double peak_rate_bps, SimTime mean_on,
                               SimTime mean_off, Rng rng)
    : stack_(stack),
      sim_(stack.simulator()),
      peak_rate_bps_(peak_rate_bps),
      mean_on_(mean_on),
      mean_off_(mean_off),
      rng_(rng) {
  sink_ = std::make_unique<TcpSink>(stack, dst, dst_port);
  conn_ = &stack_.tcp_connect(src, dst, dst_port);
}

OnOffTcpSource::~OnOffTcpSource() {
  stop();
  stack_.tcp_close(*conn_);
}

void OnOffTcpSource::start() {
  if (running_) return;
  running_ = true;
  enter_off();
}

void OnOffTcpSource::stop() {
  running_ = false;
  if (pending_.valid()) {
    sim_.cancel(pending_);
    pending_ = sim::EventHandle{};
  }
}

void OnOffTcpSource::enter_off() {
  if (!running_) return;
  in_on_ = false;
  const SimTime off = seconds(rng_.exponential(to_seconds(mean_off_)));
  pending_ = sim_.schedule_in(off, [this] { enter_on(); });
}

void OnOffTcpSource::enter_on() {
  if (!running_) return;
  in_on_ = true;
  const SimTime on = seconds(rng_.exponential(to_seconds(mean_on_)));
  on_ends_ = sim_.now() + on;
  write_chunk();
}

void OnOffTcpSource::write_chunk() {
  if (!running_ || !in_on_) return;
  if (sim_.now() >= on_ends_) {
    enter_off();
    return;
  }
  conn_->send(kChunkBytes);
  written_ += kChunkBytes;
  const SimTime pace = seconds(static_cast<double>(kChunkBytes) * 8.0 / peak_rate_bps_);
  pending_ = sim_.schedule_in(pace, [this] { write_chunk(); });
}

// --- MessageSource -----------------------------------------------------------

MessageSource::MessageSource(TransportStack& stack, net::NodeId src, net::NodeId dst,
                             std::uint16_t dst_port, std::vector<MessagePhase> phases,
                             std::uint32_t repeat, Rng rng)
    : stack_(stack),
      sim_(stack.simulator()),
      phases_(std::move(phases)),
      repeat_(repeat),
      rng_(rng) {
  if (phases_.empty()) throw std::invalid_argument("MessageSource: no phases");
  sink_ = std::make_unique<TcpSink>(stack, dst, dst_port);
  conn_ = &stack_.tcp_connect(src, dst, dst_port);
}

MessageSource::~MessageSource() {
  sim_.cancel(pending_);
  stack_.tcp_close(*conn_);
}

void MessageSource::start() {
  if (conn_->established()) {
    send_next();
  } else {
    conn_->set_on_established([this] { send_next(); });
  }
}

void MessageSource::send_next() {
  if (phase_idx_ >= phases_.size()) {
    ++rep_;
    phase_idx_ = 0;
    in_phase_ = 0;
    if (rep_ >= repeat_) {
      finished_ = true;
      return;
    }
  }
  const MessagePhase& phase = phases_[phase_idx_];
  conn_->send(phase.message_bytes);
  ++sent_;
  ++in_phase_;

  SimTime delay;
  if (in_phase_ >= phase.count) {
    delay = phase.pause_after;
    ++phase_idx_;
    in_phase_ = 0;
  } else if (phase.random_spacing) {
    delay = seconds(rng_.uniform(0.0, 2.0 * to_seconds(phase.spacing)));
  } else {
    delay = phase.spacing;
  }
  pending_ = sim_.schedule_in(delay, [this] { send_next(); });
}

// --- BulkTcpSource ----------------------------------------------------------

BulkTcpSource::BulkTcpSource(TransportStack& stack, net::NodeId src, net::NodeId dst,
                             std::uint16_t dst_port)
    : stack_(stack), sim_(stack.simulator()) {
  sink_ = std::make_unique<TcpSink>(stack, dst, dst_port);
  conn_ = &stack_.tcp_connect(src, dst, dst_port);
}

BulkTcpSource::~BulkTcpSource() {
  stop();
  stack_.tcp_close(*conn_);
}

void BulkTcpSource::start() {
  if (running_) return;
  running_ = true;
  top_up();
}

void BulkTcpSource::stop() {
  running_ = false;
  sim_.cancel(pending_);
}

void BulkTcpSource::top_up() {
  if (!running_) return;
  // Keep the send buffer ahead of the acknowledged stream so the connection
  // is never application-limited.
  while (conn_->bytes_buffered() < conn_->bytes_acked() + 4 * kWriteChunk) {
    conn_->send(kWriteChunk);
  }
  pending_ = sim_.schedule_in(millis(10), [this] { top_up(); });
}

}  // namespace vw::transport
