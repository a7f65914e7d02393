#include "wren/federation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "util/check.hpp"

namespace vw::wren {

// --- RegionMap ---------------------------------------------------------------

void RegionMap::assign(net::NodeId host, RegionId region) {
  VW_REQUIRE(region != kInvalidRegion, "RegionMap: cannot assign the invalid region");
  assignments_[host] = region;
  regions_.insert(region);
}

RegionId RegionMap::region_of(net::NodeId host) const {
  auto it = assignments_.find(host);
  return it == assignments_.end() ? kInvalidRegion : it->second;
}

std::vector<net::NodeId> RegionMap::hosts_in(RegionId region) const {
  std::vector<net::NodeId> out;
  for (const auto& [host, r] : assignments_) {
    if (r == region) out.push_back(host);
  }
  return out;
}

RegionMap RegionMap::round_robin(const std::vector<net::NodeId>& hosts, std::size_t regions) {
  VW_REQUIRE(regions >= 1, "RegionMap: need at least one region");
  RegionMap map;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    map.assign(hosts[i], static_cast<RegionId>(i % regions));
  }
  return map;
}

// --- binary codec ------------------------------------------------------------

namespace {

void put_u32(unsigned char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
void put_u64(unsigned char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}
void put_f64(unsigned char* p, double v) { put_u64(p, std::bit_cast<std::uint64_t>(v)); }
std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}
double get_f64(const unsigned char* p) { return std::bit_cast<double>(get_u64(p)); }

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("vw.fedsum.v1 parse error: " + what);
}

}  // namespace

std::vector<unsigned char> encode_summary(const FederationSummary& s) {
  const std::size_t size = kSummaryHeaderSize + s.entries.size() * kSummaryEntrySize +
                           s.aggregates.size() * kSummaryAggregateSize +
                           s.hosts.size() * kSummaryHostSize;
  std::vector<unsigned char> out(size, 0);
  unsigned char* p = out.data();
  put_u64(p + 0, kSummaryMagic);
  put_u32(p + 8, kSummaryVersion);
  put_u32(p + 12, s.region);
  put_u64(p + 16, static_cast<std::uint64_t>(s.created_at));
  put_u64(p + 24, s.seq);
  put_u64(p + 32, s.total_pairs);
  put_u32(p + 40, static_cast<std::uint32_t>(s.entries.size()));
  put_u32(p + 44, static_cast<std::uint32_t>(s.aggregates.size()));
  put_u32(p + 48, static_cast<std::uint32_t>(s.hosts.size()));
  p += kSummaryHeaderSize;
  for (const SummaryEntry& e : s.entries) {
    put_u32(p + 0, e.from);
    put_u32(p + 4, e.to);
    put_f64(p + 8, e.bandwidth_bps);
    put_f64(p + 16, e.latency_s);
    put_u64(p + 24, static_cast<std::uint64_t>(e.updated_at));
    p[32] = static_cast<unsigned char>((e.has_bandwidth ? 1 : 0) | (e.has_latency ? 2 : 0));
    p += kSummaryEntrySize;
  }
  for (const RegionAggregate& a : s.aggregates) {
    put_u32(p + 0, a.src_region);
    put_u32(p + 4, a.dst_region);
    put_u64(p + 8, a.pair_count);
    put_f64(p + 16, a.mean_bandwidth_bps);
    put_f64(p + 24, a.min_bandwidth_bps);
    put_f64(p + 32, a.mean_latency_s);
    p += kSummaryAggregateSize;
  }
  for (const HostSeen& h : s.hosts) {
    put_u32(p + 0, h.host);
    put_u64(p + 8, static_cast<std::uint64_t>(h.last_seen));
    p += kSummaryHostSize;
  }
  return out;
}

FederationSummary decode_summary(const unsigned char* data, std::size_t size) {
  if (size < kSummaryHeaderSize) {
    corrupt("truncated header: " + std::to_string(size) + " bytes, need " +
            std::to_string(kSummaryHeaderSize));
  }
  if (get_u64(data + 0) != kSummaryMagic) corrupt("bad magic");
  const std::uint32_t version = get_u32(data + 8);
  if (version != kSummaryVersion) corrupt("unknown version " + std::to_string(version));
  FederationSummary s;
  s.region = get_u32(data + 12);
  s.created_at = static_cast<SimTime>(get_u64(data + 16));
  s.seq = get_u64(data + 24);
  s.total_pairs = get_u64(data + 32);
  const std::uint32_t n_entries = get_u32(data + 40);
  const std::uint32_t n_aggregates = get_u32(data + 44);
  const std::uint32_t n_hosts = get_u32(data + 48);
  const std::size_t expected = kSummaryHeaderSize +
                               static_cast<std::size_t>(n_entries) * kSummaryEntrySize +
                               static_cast<std::size_t>(n_aggregates) * kSummaryAggregateSize +
                               static_cast<std::size_t>(n_hosts) * kSummaryHostSize;
  if (size < expected) {
    corrupt("truncated records: " + std::to_string(size) + " bytes, counts need " +
            std::to_string(expected));
  }
  if (size > expected) {
    corrupt("trailing bytes: " + std::to_string(size - expected) + " after the last record");
  }
  const unsigned char* p = data + kSummaryHeaderSize;
  s.entries.reserve(n_entries);
  for (std::uint32_t i = 0; i < n_entries; ++i) {
    SummaryEntry e;
    e.from = get_u32(p + 0);
    e.to = get_u32(p + 4);
    e.bandwidth_bps = get_f64(p + 8);
    e.latency_s = get_f64(p + 16);
    e.updated_at = static_cast<SimTime>(get_u64(p + 24));
    e.has_bandwidth = (p[32] & 1) != 0;
    e.has_latency = (p[32] & 2) != 0;
    s.entries.push_back(e);
    p += kSummaryEntrySize;
  }
  s.aggregates.reserve(n_aggregates);
  for (std::uint32_t i = 0; i < n_aggregates; ++i) {
    RegionAggregate a;
    a.src_region = get_u32(p + 0);
    a.dst_region = get_u32(p + 4);
    a.pair_count = get_u64(p + 8);
    a.mean_bandwidth_bps = get_f64(p + 16);
    a.min_bandwidth_bps = get_f64(p + 24);
    a.mean_latency_s = get_f64(p + 32);
    s.aggregates.push_back(a);
    p += kSummaryAggregateSize;
  }
  s.hosts.reserve(n_hosts);
  for (std::uint32_t i = 0; i < n_hosts; ++i) {
    HostSeen h;
    h.host = get_u32(p + 0);
    h.last_seen = static_cast<SimTime>(get_u64(p + 8));
    s.hosts.push_back(h);
    p += kSummaryHostSize;
  }
  return s;
}

FederationSummary decode_summary(const std::vector<unsigned char>& bytes) {
  return decode_summary(bytes.data(), bytes.size());
}

std::string summary_to_hex(const FederationSummary& summary) {
  static const char* digits = "0123456789abcdef";
  const std::vector<unsigned char> bytes = encode_summary(summary);
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char b : bytes) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

FederationSummary summary_from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) corrupt("odd hex length " + std::to_string(hex.size()));
  std::vector<unsigned char> bytes(hex.size() / 2);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const auto nibble = [&](char c) -> unsigned {
      if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
      if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a') + 10;
      if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A') + 10;
      corrupt(std::string("non-hex digit '") + c + "'");
    };
    bytes[i] = static_cast<unsigned char>((nibble(hex[2 * i]) << 4) | nibble(hex[2 * i + 1]));
  }
  return decode_summary(bytes);
}

// --- daemon report codec -----------------------------------------------------

soap::XmlNode encode_wren_report_xml(net::NodeId reporter,
                                     const std::vector<PathReading>& readings) {
  soap::XmlNode msg;
  msg.name = "WrenReport";
  msg.attributes["reporter"] = std::to_string(reporter);
  for (const PathReading& r : readings) {
    soap::XmlNode& p = msg.add_child("peer");
    p.attributes["id"] = std::to_string(r.peer);
    if (r.bandwidth_bps) p.attributes["bw"] = soap::format_double(*r.bandwidth_bps);
    if (r.latency_s) p.attributes["lat"] = soap::format_double(*r.latency_s);
  }
  return msg;
}

net::NodeId parse_wren_report_xml(const soap::XmlNode& msg, std::vector<PathReading>& readings,
                                  std::uint64_t* rejected) {
  // Decode the whole document before handing anything back: a bad field
  // anywhere throws and leaves `readings` and `rejected` untouched.
  const auto reporter = soap::attr<net::NodeId>(msg, "reporter");
  std::vector<PathReading> decoded;
  std::uint64_t invalid = 0;
  const auto reading = [&](const soap::XmlNode& p, const char* attr) -> std::optional<double> {
    if (!p.attributes.contains(attr)) return std::nullopt;
    const double v = soap::attr<double>(p, attr);
    if (GlobalNetworkView::valid_measurement(v)) return v;
    ++invalid;
    return std::nullopt;
  };
  for (const soap::XmlNode& p : msg.children) {
    if (p.name != "peer") continue;
    PathReading r;
    r.peer = soap::attr<net::NodeId>(p, "id");
    r.bandwidth_bps = reading(p, "bw");
    r.latency_s = reading(p, "lat");
    if (r.bandwidth_bps || r.latency_s) decoded.push_back(r);
  }
  readings.insert(readings.end(), decoded.begin(), decoded.end());
  if (rejected != nullptr) *rejected += invalid;
  return reporter;
}

// --- RegionalProxy -----------------------------------------------------------

RegionalProxy::RegionalProxy(RegionId region, const RegionMap& region_map,
                             RegionalProxyParams params)
    : region_(region), region_map_(region_map), params_(params) {
  VW_REQUIRE(region != kInvalidRegion, "RegionalProxy: invalid region id");
  view_.set_staleness_horizon(params_.staleness_horizon);
}

std::size_t RegionalProxy::apply_report(net::NodeId reporter,
                                        const std::vector<PathReading>& readings, SimTime at) {
  note_host(reporter, at);
  std::size_t accepted = 0;
  for (const PathReading& r : readings) {
    bool any = false;
    if (r.bandwidth_bps) any |= view_.update_bandwidth(reporter, r.peer, *r.bandwidth_bps, at);
    if (r.latency_s) any |= view_.update_latency(reporter, r.peer, *r.latency_s, at);
    if (any) ++accepted;
  }
  if (g_view_pairs_ != nullptr) obs::set(g_view_pairs_, static_cast<double>(view_.entries().size()));
  return accepted;
}

void RegionalProxy::note_host(net::NodeId host, SimTime at) {
  SimTime& last = hosts_seen_[host];
  last = std::max(last, at);
}

void RegionalProxy::set_demand_weight(net::NodeId from, net::NodeId to, double weight) {
  if (weight <= 0) {
    demand_weights_.erase({from, to});
  } else {
    demand_weights_[{from, to}] = weight;
  }
}

void RegionalProxy::clear_demand_weights() { demand_weights_.clear(); }

FederationSummary RegionalProxy::build_summary(SimTime now, bool force_full) {
  FederationSummary s;
  s.region = region_;
  s.created_at = now;
  s.seq = next_seq_++;

  // Snapshot the fresh entries once; everything below derives from it.
  struct Candidate {
    std::pair<net::NodeId, net::NodeId> pair;
    const PathMeasurement* m;
    double weight;
  };
  std::vector<Candidate> fresh;
  fresh.reserve(view_.entries().size());
  for (const auto& [pair, m] : view_.entries()) {
    if (!view_.is_fresh(m)) continue;
    const auto w = demand_weights_.find(pair);
    fresh.push_back({pair, &m, w == demand_weights_.end() ? 0.0 : w->second});
  }
  s.total_pairs = fresh.size();

  // Top-k selection: demand-hot pairs first, then most recently updated;
  // pair order breaks ties so the choice is deterministic. Sampling off
  // (max_pairs == 0) exports everything — the serial-oracle configuration.
  const std::size_t k = (params_.summary_max_pairs == 0 || force_full)
                            ? fresh.size()
                            : std::min(params_.summary_max_pairs, fresh.size());
  std::vector<const Candidate*> chosen;
  chosen.reserve(fresh.size());
  for (const Candidate& c : fresh) chosen.push_back(&c);
  if (k < chosen.size()) {
    std::partial_sort(chosen.begin(), chosen.begin() + static_cast<std::ptrdiff_t>(k),
                      chosen.end(), [](const Candidate* a, const Candidate* b) {
                        if (a->weight != b->weight) return a->weight > b->weight;
                        if (a->m->updated_at != b->m->updated_at) {
                          return a->m->updated_at > b->m->updated_at;
                        }
                        return a->pair < b->pair;
                      });
    chosen.resize(k);
    // Re-emit in pair order: the export is a set, not a ranking.
    std::sort(chosen.begin(), chosen.end(),
              [](const Candidate* a, const Candidate* b) { return a->pair < b->pair; });
  }
  s.entries.reserve(chosen.size());
  for (const Candidate* c : chosen) {
    s.entries.push_back(SummaryEntry{c->pair.first, c->pair.second, c->m->bandwidth_bps,
                                     c->m->latency_s, c->m->updated_at, c->m->has_bandwidth,
                                     c->m->has_latency});
  }

  // Region-to-region rollups over ALL fresh entries, so the mass the top-k
  // suppressed still reaches the root in aggregate form.
  struct Acc {
    std::uint64_t n = 0;
    double bw_sum = 0, bw_min = 0, lat_sum = 0;
    std::uint64_t bw_n = 0, lat_n = 0;
  };
  std::map<std::pair<RegionId, RegionId>, Acc> acc;
  for (const Candidate& c : fresh) {
    const RegionId dst_region = region_map_.region_of(c.pair.second);
    Acc& a = acc[{region_, dst_region}];
    ++a.n;
    if (c.m->has_bandwidth) {
      if (a.bw_n == 0 || c.m->bandwidth_bps < a.bw_min) a.bw_min = c.m->bandwidth_bps;
      a.bw_sum += c.m->bandwidth_bps;
      ++a.bw_n;
    }
    if (c.m->has_latency) {
      a.lat_sum += c.m->latency_s;
      ++a.lat_n;
    }
  }
  for (const auto& [key, a] : acc) {
    RegionAggregate agg;
    agg.src_region = key.first;
    agg.dst_region = key.second;
    agg.pair_count = a.n;
    agg.mean_bandwidth_bps = a.bw_n > 0 ? a.bw_sum / static_cast<double>(a.bw_n) : 0;
    agg.min_bandwidth_bps = a.bw_min;
    agg.mean_latency_s = a.lat_n > 0 ? a.lat_sum / static_cast<double>(a.lat_n) : 0;
    s.aggregates.push_back(agg);
  }

  s.hosts.reserve(hosts_seen_.size());
  for (const auto& [host, at] : hosts_seen_) s.hosts.push_back(HostSeen{host, at});

  entries_exported_ += s.entries.size();
  entries_suppressed_ += s.total_pairs - s.entries.size();
  obs::add(c_summaries_);
  obs::add(c_exported_, s.entries.size());
  obs::add(c_suppressed_, s.total_pairs - s.entries.size());
  return s;
}

void RegionalProxy::set_obs(const obs::Scope& scope) {
  c_summaries_ = scope.counter("wren.federation.region.summaries");
  c_exported_ = scope.counter("wren.federation.region.entries_exported");
  c_suppressed_ = scope.counter("wren.federation.region.entries_suppressed");
  g_view_pairs_ = scope.gauge("wren.federation.region.view_pairs");
  view_.set_obs(scope);
}

// --- FederationRoot ----------------------------------------------------------

FederationRoot::FederationRoot(GlobalNetworkView& root_view, const RegionMap& region_map)
    : view_(root_view), region_map_(region_map) {}

std::uint64_t FederationRoot::apply_summary(const FederationSummary& summary, SimTime now) {
  RegionState& state = region_state_[summary.region];
  std::uint64_t lost = 0;
  if (state.last_seq != 0 && summary.seq > state.last_seq + 1) {
    // A control-plane window gap ate intermediate summaries. Their sampled
    // entries may not be in this one, so the loss is counted where
    // operators can see it and reported to the caller.
    lost = summary.seq - state.last_seq - 1;
    seq_gaps_ += lost;
    obs::add(c_seq_gaps_, lost);
  }
  if (summary.seq != 0) state.last_seq = std::max(state.last_seq, summary.seq);
  state.exported = summary.entries.size();
  state.total = summary.total_pairs;

  for (const SummaryEntry& e : summary.entries) {
    // Original regional timestamps: the staleness TTL is the cross-tier
    // consistency contract, so an entry must age from when it was measured,
    // not from when its summary arrived.
    if (e.has_bandwidth) view_.update_bandwidth(e.from, e.to, e.bandwidth_bps, e.updated_at);
    if (e.has_latency) view_.update_latency(e.from, e.to, e.latency_s, e.updated_at);
  }
  for (const RegionAggregate& a : summary.aggregates) {
    aggregates_[{a.src_region, a.dst_region}] = a;
  }
  if (host_seen_) {
    for (const HostSeen& h : summary.hosts) host_seen_(h.host, h.last_seen);
  }
  ++summaries_applied_;
  obs::add(c_summaries_);
  obs::add(c_entries_, summary.entries.size());
  obs::add(c_aggregates_, summary.aggregates.size());
  if (h_lag_ != nullptr && now >= summary.created_at) {
    obs::record(h_lag_, to_seconds(now - summary.created_at));
  }
  if (g_coverage_ != nullptr) obs::set(g_coverage_, coverage());
  if (g_regions_ != nullptr) obs::set(g_regions_, static_cast<double>(region_state_.size()));
  return lost;
}

std::optional<double> FederationRoot::aggregate_bandwidth(net::NodeId from,
                                                          net::NodeId to) const {
  const auto it =
      aggregates_.find({region_map_.region_of(from), region_map_.region_of(to)});
  if (it == aggregates_.end() || it->second.pair_count == 0) return std::nullopt;
  if (it->second.mean_bandwidth_bps <= 0) return std::nullopt;
  return it->second.mean_bandwidth_bps;
}

std::optional<double> FederationRoot::aggregate_latency(net::NodeId from, net::NodeId to) const {
  const auto it =
      aggregates_.find({region_map_.region_of(from), region_map_.region_of(to)});
  if (it == aggregates_.end() || it->second.pair_count == 0) return std::nullopt;
  if (it->second.mean_latency_s <= 0) return std::nullopt;
  return it->second.mean_latency_s;
}

double FederationRoot::coverage() const {
  if (region_state_.empty()) return 1.0;
  double sum = 0;
  for (const auto& [region, s] : region_state_) {
    sum += s.total == 0 ? 1.0
                        : static_cast<double>(s.exported) / static_cast<double>(s.total);
  }
  return sum / static_cast<double>(region_state_.size());
}

void FederationRoot::set_obs(const obs::Scope& scope) {
  c_summaries_ = scope.counter("wren.federation.summaries");
  c_entries_ = scope.counter("wren.federation.entries_applied");
  c_aggregates_ = scope.counter("wren.federation.aggregates_applied");
  c_seq_gaps_ = scope.counter("wren.federation.seq_gaps");
  h_lag_ = scope.histogram("wren.federation.lag_seconds");
  g_coverage_ = scope.gauge("wren.federation.coverage");
  g_regions_ = scope.gauge("wren.federation.regions");
}

}  // namespace vw::wren
