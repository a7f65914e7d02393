#include "wren/service.hpp"

namespace vw::wren {

WrenService::WrenService(soap::RpcRegistry& registry, OnlineAnalyzer& analyzer,
                         std::string endpoint)
    : registry_(registry), analyzer_(analyzer), endpoint_(std::move(endpoint)) {
  analyzer_.set_on_observation([this](net::NodeId peer, const SicObservation& obs) {
    if (stream_.size() >= kStreamCapacity) {
      stream_.erase(stream_.begin(), stream_.begin() + kStreamCapacity / 4);
    }
    stream_.push_back(StreamedObservation{next_stream_id_++, peer, obs});
  });
  registry_.register_method(endpoint_, "GetAvailableBandwidth",
                            [this](const soap::XmlNode& r) { return handle_get_bandwidth(r); });
  registry_.register_method(endpoint_, "GetLatency",
                            [this](const soap::XmlNode& r) { return handle_get_latency(r); });
  registry_.register_method(endpoint_, "GetCapacity",
                            [this](const soap::XmlNode& r) { return handle_get_capacity(r); });
  registry_.register_method(endpoint_, "GetPeers",
                            [this](const soap::XmlNode& r) { return handle_get_peers(r); });
  registry_.register_method(endpoint_, "GetObservations",
                            [this](const soap::XmlNode& r) { return handle_get_observations(r); });
}

WrenService::~WrenService() { registry_.unregister_endpoint(endpoint_); }

soap::XmlNode WrenService::handle_get_bandwidth(const soap::XmlNode& request) const {
  const auto peer = soap::decode_number<net::NodeId>(request.child_text("peer"), request.name,
                                                     "peer");
  soap::XmlNode resp;
  resp.name = "GetAvailableBandwidthResponse";
  if (auto bw = analyzer_.available_bandwidth_bps(peer)) {
    resp.add_text_child("bps", soap::format_double(*bw));
  }
  return resp;
}

soap::XmlNode WrenService::handle_get_latency(const soap::XmlNode& request) const {
  const auto peer = soap::decode_number<net::NodeId>(request.child_text("peer"), request.name,
                                                     "peer");
  soap::XmlNode resp;
  resp.name = "GetLatencyResponse";
  if (auto lat = analyzer_.latency_seconds(peer)) {
    resp.add_text_child("seconds", soap::format_double(*lat));
  }
  return resp;
}

soap::XmlNode WrenService::handle_get_capacity(const soap::XmlNode& request) const {
  const auto peer = soap::decode_number<net::NodeId>(request.child_text("peer"), request.name,
                                                     "peer");
  soap::XmlNode resp;
  resp.name = "GetCapacityResponse";
  if (auto cap = analyzer_.capacity_bps(peer)) {
    resp.add_text_child("bps", soap::format_double(*cap));
  }
  return resp;
}

soap::XmlNode WrenService::handle_get_peers(const soap::XmlNode&) const {
  soap::XmlNode resp;
  resp.name = "GetPeersResponse";
  for (net::NodeId peer : analyzer_.peers()) {
    resp.add_text_child("peer", std::to_string(peer));
  }
  return resp;
}

soap::XmlNode WrenService::handle_get_observations(const soap::XmlNode& request) const {
  const std::string since_text = request.child_text("since");
  const std::uint64_t since =
      since_text.empty() ? 0
                         : soap::decode_number<std::uint64_t>(since_text, request.name, "since");
  soap::XmlNode resp;
  resp.name = "GetObservationsResponse";
  for (const StreamedObservation& so : stream_) {
    if (so.id <= since) continue;
    soap::XmlNode& n = resp.add_child("observation");
    n.add_text_child("id", std::to_string(so.id));
    n.add_text_child("peer", std::to_string(so.peer));
    n.add_text_child("time", soap::format_double(to_seconds(so.observation.time)));
    n.add_text_child("isr_bps", soap::format_double(so.observation.isr_bps));
    n.add_text_child("ack_rate_bps", soap::format_double(so.observation.ack_rate_bps));
    n.add_text_child("congested", so.observation.congested ? "1" : "0");
    n.add_text_child("train_length", std::to_string(so.observation.train_length));
  }
  return resp;
}

WrenClient::WrenClient(const soap::RpcRegistry& registry, std::string endpoint)
    : registry_(registry), endpoint_(std::move(endpoint)) {}

std::optional<double> WrenClient::available_bandwidth_bps(net::NodeId peer) const {
  soap::XmlNode req;
  req.name = "GetAvailableBandwidth";
  req.add_text_child("peer", std::to_string(peer));
  const soap::XmlNode resp = registry_.call(endpoint_, "GetAvailableBandwidth", req);
  if (resp.child("bps") == nullptr) return std::nullopt;
  return soap::decode_number<double>(resp.child_text("bps"), resp.name, "bps");
}

std::optional<double> WrenClient::latency_seconds(net::NodeId peer) const {
  soap::XmlNode req;
  req.name = "GetLatency";
  req.add_text_child("peer", std::to_string(peer));
  const soap::XmlNode resp = registry_.call(endpoint_, "GetLatency", req);
  if (resp.child("seconds") == nullptr) return std::nullopt;
  return soap::decode_number<double>(resp.child_text("seconds"), resp.name, "seconds");
}

std::optional<double> WrenClient::capacity_bps(net::NodeId peer) const {
  soap::XmlNode req;
  req.name = "GetCapacity";
  req.add_text_child("peer", std::to_string(peer));
  const soap::XmlNode resp = registry_.call(endpoint_, "GetCapacity", req);
  if (resp.child("bps") == nullptr) return std::nullopt;
  return soap::decode_number<double>(resp.child_text("bps"), resp.name, "bps");
}

std::vector<net::NodeId> WrenClient::peers() const {
  soap::XmlNode req;
  req.name = "GetPeers";
  const soap::XmlNode resp = registry_.call(endpoint_, "GetPeers", req);
  std::vector<net::NodeId> out;
  for (const soap::XmlNode* n : resp.children_named("peer")) {
    out.push_back(soap::decode_number<net::NodeId>(n->text, resp.name, "peer"));
  }
  return out;
}

std::pair<std::vector<StreamedObservation>, std::uint64_t> WrenClient::observations(
    std::uint64_t since) const {
  soap::XmlNode req;
  req.name = "GetObservations";
  req.add_text_child("since", std::to_string(since));
  const soap::XmlNode resp = registry_.call(endpoint_, "GetObservations", req);
  std::vector<StreamedObservation> out;
  std::uint64_t max_id = since;
  for (const soap::XmlNode* n : resp.children_named("observation")) {
    StreamedObservation so;
    so.id = soap::decode_number<std::uint64_t>(n->child_text("id"), n->name, "id");
    so.peer = soap::decode_number<net::NodeId>(n->child_text("peer"), n->name, "peer");
    so.observation.time =
        seconds(soap::decode_number<double>(n->child_text("time"), n->name, "time"));
    so.observation.isr_bps =
        soap::decode_number<double>(n->child_text("isr_bps"), n->name, "isr_bps");
    so.observation.ack_rate_bps =
        soap::decode_number<double>(n->child_text("ack_rate_bps"), n->name, "ack_rate_bps");
    so.observation.congested = n->child_text("congested") == "1";
    so.observation.train_length =
        soap::decode_number<std::uint64_t>(n->child_text("train_length"), n->name, "train_length");
    max_id = std::max(max_id, so.id);
    out.push_back(std::move(so));
  }
  return {std::move(out), max_id};
}

}  // namespace vw::wren
