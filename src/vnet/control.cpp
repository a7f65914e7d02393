#include "vnet/control.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace vw::vnet {

ControlPlane::ControlPlane(transport::TransportStack& stack, net::NodeId proxy_host,
                           std::uint16_t port, ControlPlaneParams params)
    : stack_(stack), proxy_host_(proxy_host), port_(port), params_(params) {
  stack_.tcp_listen(proxy_host_, port_, [this](transport::TcpConnection& conn) {
    conn.set_on_message([this](std::uint64_t, const std::any& tag) {
      if (const auto* doc = std::any_cast<std::string>(&tag)) dispatch(*doc);
    });
  });
  health_task_ = std::make_unique<sim::PeriodicTask>(
      sim(), kHealthCheckPeriod, [this] { health_tick(); });
}

ControlPlane::~ControlPlane() {
  health_task_.reset();
  for (auto& [host, state] : clients_) {
    sim().cancel(state.reconnect_timer);
    if (state.conn != nullptr) {
      // Destroys both endpoints so no pending network event can call back
      // into this object after it is gone.
      stack_.tcp_close(*state.conn);
      state.conn = nullptr;
    }
  }
  stack_.tcp_unlisten(proxy_host_, port_);
}

void ControlPlane::set_obs(const obs::Scope& scope) {
  c_delivered_ = scope.counter("vnet.control.delivered");
  c_unhandled_ = scope.counter("vnet.control.unhandled");
  c_parse_failures_ = scope.counter("vnet.control.parse_failures");
  c_disconnects_ = scope.counter("vnet.control.disconnects");
  c_reconnects_ = scope.counter("vnet.control.reconnects");
  c_reconnect_attempts_ = scope.counter("vnet.control.reconnect_attempts");
  c_resends_ = scope.counter("vnet.control.resends");
  c_drops_ = scope.counter("vnet.control.drops");
  c_window_gaps_ = scope.counter("vnet.control.window_gaps");
}

std::uint64_t ControlPlane::delivered_bytes(const std::string& root_name) const {
  auto it = delivered_bytes_by_type_.find(root_name);
  return it == delivered_bytes_by_type_.end() ? 0 : it->second;
}

void ControlPlane::register_handler(const std::string& root_name, HandlerFn handler) {
  handlers_[root_name] = std::move(handler);
}

void ControlPlane::dispatch(const std::string& doc) {
  soap::XmlNode message;
  try {
    message = soap::parse_xml(doc);
  } catch (const std::exception&) {
    ++parse_failures_;
    obs::add(c_parse_failures_);
    return;
  }
  auto it = handlers_.find(message.name);
  if (it == handlers_.end()) {
    // A report type nobody listens for is not a delivery — count it where
    // operators can see it instead of silently absorbing it.
    ++unhandled_;
    obs::add(c_unhandled_);
    return;
  }
  try {
    it->second(message);
  } catch (const std::runtime_error&) {
    // Fields that do not decode (thrown before the handler touches state).
    // Anything else, a vw::contracts::ContractError above all, propagates.
    ++parse_failures_;
    obs::add(c_parse_failures_);
    return;
  }
  ++delivered_;
  obs::add(c_delivered_);
  delivered_bytes_by_type_[message.name] += doc.size();
}

bool ControlPlane::connection_healthy(net::NodeId host) const {
  if (host == proxy_host_) return true;
  auto it = clients_.find(host);
  return it != clients_.end() && it->second.conn != nullptr &&
         it->second.conn->established();
}

void ControlPlane::transmit(ClientState& state, OutboundMessage& msg) {
  if (msg.attempts > 0) {
    ++resends_;
    obs::add(c_resends_);
  }
  ++msg.attempts;
  bytes_shipped_ += msg.doc.size();
  state.conn->send(msg.doc.size(), std::any(msg.doc));
  msg.end_offset = state.conn->bytes_buffered();
}

void ControlPlane::send(net::NodeId host, const soap::XmlNode& message) {
  const std::string doc = soap::to_xml(message);
  if (host == proxy_host_) {
    // The Proxy's own daemon reports locally.
    dispatch(doc);
    return;
  }
  ClientState& state = clients_[host];
  if (state.window.size() >= kResendWindow) {
    // Oldest report gives way. If it was already acknowledged this is pure
    // housekeeping; if not, the Proxy may never see it and the newer
    // messages behind it in the window have to stand in for it.
    const OutboundMessage& victim = state.window.front();
    if (victim.end_offset == 0 || victim.end_offset > state.last_acked) {
      ++window_gaps_;
      obs::add(c_window_gaps_);
    }
    state.window.pop_front();
    ++drops_;
    obs::add(c_drops_);
  }
  state.window.push_back(OutboundMessage{doc});
  if (state.conn != nullptr && state.conn->state() == transport::TcpConnection::State::kClosed) {
    // Detected between health ticks (e.g. the handshake gave up): recycle
    // now so the fresh message rides the reconnect.
    fail_connection(host, state);
    return;
  }
  if (state.conn == nullptr) {
    // First use, or a failed connection waiting out its backoff.
    if (!state.reconnect_timer.valid()) attempt_connect(host);
    return;
  }
  // TcpConnection buffers until established, so sending while the handshake
  // is still in flight is fine.
  transmit(state, state.window.back());
}

void ControlPlane::attempt_connect(net::NodeId host) {
  ClientState& state = clients_[host];
  state.reconnect_timer = sim::EventHandle{};
  const bool is_reconnect = state.ever_established || state.attempt_started > 0;
  if (is_reconnect) {
    ++reconnect_attempts_;
    obs::add(c_reconnect_attempts_);
  }
  state.conn = &stack_.tcp_connect(host, proxy_host_, port_);
  state.attempt_started = sim().now();
  state.last_progress = sim().now();
  state.last_acked = 0;
  state.conn->set_on_established([this, host, is_reconnect] {
    ClientState& s = clients_[host];
    s.ever_established = true;
    s.backoff = 0;
    s.last_progress = sim().now();
    if (is_reconnect) {
      ++reconnects_;
      obs::add(c_reconnects_);
    }
  });
  // Replay the whole resend window in order (TCP queues until established).
  for (OutboundMessage& msg : state.window) transmit(state, msg);
}

void ControlPlane::fail_connection(net::NodeId host, ClientState& state) {
  ++disconnects_;
  obs::add(c_disconnects_);
  if (state.conn != nullptr) {
    transport::TcpConnection* dead = state.conn;
    state.conn = nullptr;
    stack_.tcp_close(*dead);
  }
  // Everything unacknowledged is presumed lost with the connection and will
  // be replayed on the next one.
  for (OutboundMessage& msg : state.window) msg.end_offset = 0;
  state.last_acked = 0;
  schedule_reconnect(host, state);
}

void ControlPlane::schedule_reconnect(net::NodeId host, ClientState& state) {
  state.backoff = state.backoff <= 0
                      ? params_.backoff_initial
                      : std::min(kBackoffMax, static_cast<SimTime>(
                                                  static_cast<double>(state.backoff) *
                                                  kBackoffFactor));
  state.reconnect_timer = sim().schedule_in(state.backoff, [this, host] {
    attempt_connect(host);
  });
}

void ControlPlane::health_tick() {
  const SimTime now = sim().now();
  for (auto& [host, state] : clients_) {
    if (state.conn == nullptr) continue;  // waiting out a backoff
    // Acknowledged-byte progress both prunes the resend window and proves
    // the connection alive.
    const std::uint64_t acked = state.conn->bytes_acked();
    if (acked > state.last_acked) {
      state.last_acked = acked;
      state.last_progress = now;
      while (!state.window.empty() && state.window.front().end_offset > 0 &&
             state.window.front().end_offset <= acked) {
        state.window.pop_front();
      }
    }
    if (state.conn->state() == transport::TcpConnection::State::kClosed) {
      fail_connection(host, state);
      continue;
    }
    if (!state.conn->established()) {
      if (now - state.attempt_started > kConnectTimeout) {
        fail_connection(host, state);
      }
      continue;
    }
    if (state.conn->bytes_in_flight() > 0 &&
        now - state.last_progress > params_.send_timeout) {
      fail_connection(host, state);
    }
  }
}

}  // namespace vw::vnet
