#pragma once

#include <optional>
#include <string>
#include <vector>

#include "soap/rpc.hpp"
#include "wren/analyzer.hpp"

// Wren's SOAP measurement interface (the paper's gSOAP service), a library
// for an external consumer: the integrated runtime ships readings to the
// Proxy as control-plane reports and registers no endpoint of its own.
//
// A host's analyzer is exported as endpoint "wren://<host-name>" with
// methods:
//   GetAvailableBandwidth(peer) -> bits/s or empty when unknown
//   GetLatency(peer)            -> seconds or empty when unknown
//   GetCapacity(peer)           -> bits/s or empty when unknown
//   GetPeers()                  -> peer list
//   GetObservations(since)      -> observation batch with monotone ids,
//                                  so clients can consume the measurement
//                                  stream without blocking the analyzer.

namespace vw::wren {

struct StreamedObservation {
  std::uint64_t id = 0;
  net::NodeId peer = net::kInvalidNode;
  SicObservation observation;
};

class WrenService {
 public:
  WrenService(soap::RpcRegistry& registry, OnlineAnalyzer& analyzer, std::string endpoint);
  ~WrenService();

  WrenService(const WrenService&) = delete;
  WrenService& operator=(const WrenService&) = delete;

  const std::string& endpoint() const { return endpoint_; }

 private:
  soap::XmlNode handle_get_bandwidth(const soap::XmlNode& request) const;
  soap::XmlNode handle_get_latency(const soap::XmlNode& request) const;
  soap::XmlNode handle_get_capacity(const soap::XmlNode& request) const;
  soap::XmlNode handle_get_peers(const soap::XmlNode& request) const;
  soap::XmlNode handle_get_observations(const soap::XmlNode& request) const;

  soap::RpcRegistry& registry_;
  OnlineAnalyzer& analyzer_;
  std::string endpoint_;
  std::vector<StreamedObservation> stream_;
  std::uint64_t next_stream_id_ = 1;
  static constexpr std::size_t kStreamCapacity = 4096;
};

/// Client-side wrapper over the SOAP calls. A request field that is not a
/// valid number comes back as a SoapFault; a response field that is not one
/// throws std::runtime_error.
class WrenClient {
 public:
  WrenClient(const soap::RpcRegistry& registry, std::string endpoint);

  std::optional<double> available_bandwidth_bps(net::NodeId peer) const;
  std::optional<double> latency_seconds(net::NodeId peer) const;
  std::optional<double> capacity_bps(net::NodeId peer) const;
  std::vector<net::NodeId> peers() const;
  /// Observations with id > since; returns them and the max id seen.
  std::pair<std::vector<StreamedObservation>, std::uint64_t> observations(
      std::uint64_t since) const;

 private:
  const soap::RpcRegistry& registry_;
  std::string endpoint_;
};

}  // namespace vw::wren
