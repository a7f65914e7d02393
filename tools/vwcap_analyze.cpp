// vwcap-analyze: per-flow rate/throughput/inter-arrival statistics for a
// vw.trace.v1 capture file, with CSV and Chrome-trace exports (the
// exact-pcap-analyze equivalent — a sanity check on a capture corpus before
// deeper analysis).
//
//   $ vwcap-analyze trace.vwtrace [--csv FILE] [--chrome FILE] [--interval SEC]
//
// The console report and --csv list, per (flow, direction):
//   packets, data packets, acks, payload bytes, wire bytes, duration,
//   mean goodput / wire throughput (Mbps), inter-arrival min/mean/p99 (us).
// --chrome emits trace_event counter samples ("rate_mbps" per flow per
// --interval bucket, default 100 ms) loadable in chrome://tracing / Perfetto.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "wren/offline.hpp"

using namespace vw;

namespace {

struct FlowStats {
  std::uint64_t packets = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t acks = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;
  SimTime first = 0;
  SimTime last = 0;
  std::vector<SimTime> interarrival;  // ns gaps between consecutive records
  SimTime prev = -1;

  void add(const wren::PacketRecord& r) {
    if (packets == 0) first = r.timestamp;
    last = r.timestamp;
    if (prev >= 0) interarrival.push_back(r.timestamp - prev);
    prev = r.timestamp;
    ++packets;
    if (r.is_ack) ++acks;
    if (r.payload_bytes > 0 && !r.is_ack) ++data_packets;
    payload_bytes += r.payload_bytes;
    wire_bytes += r.wire_bytes;
  }

  double duration_s() const { return to_seconds(last - first); }
  double goodput_mbps() const {
    const double d = duration_s();
    return d > 0 ? static_cast<double>(payload_bytes) * 8.0 / d / 1e6 : 0.0;
  }
  double wire_mbps() const {
    const double d = duration_s();
    return d > 0 ? static_cast<double>(wire_bytes) * 8.0 / d / 1e6 : 0.0;
  }
  SimTime ia_quantile(double q) const {
    if (interarrival.empty()) return 0;
    std::vector<SimTime> s = interarrival;
    std::sort(s.begin(), s.end());
    const std::size_t idx =
        std::min(s.size() - 1, static_cast<std::size_t>(q * static_cast<double>(s.size() - 1)));
    return s[idx];
  }
  double ia_mean_us() const {
    if (interarrival.empty()) return 0.0;
    double sum = 0;
    for (SimTime t : interarrival) sum += static_cast<double>(t);
    return sum / static_cast<double>(interarrival.size()) / 1e3;
  }
};

struct GroupKey {
  net::FlowKey flow;
  net::TapDirection dir;
  friend auto operator<=>(const GroupKey&, const GroupKey&) = default;
};

std::string flow_name(const net::FlowKey& f, net::TapDirection dir) {
  return std::to_string(f.src) + ":" + std::to_string(f.src_port) + "->" +
         std::to_string(f.dst) + ":" + std::to_string(f.dst_port) +
         (dir == net::TapDirection::kOutgoing ? " out" : " in");
}

// Minimal JSON string escaping for flow names (digits, :, ->, space only —
// but stay correct if the format ever grows).
std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  std::string csv_path;
  std::string chrome_path;
  double interval_s = 0.1;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv_path = cli::need_value(argc, argv, i++);
    } else if (std::strcmp(argv[i], "--chrome") == 0) {
      chrome_path = cli::need_value(argc, argv, i++);
    } else if (std::strcmp(argv[i], "--interval") == 0) {
      interval_s = cli::double_value(argc, argv, i++);
    } else if (argv[i][0] == '-') {
      std::cerr << "usage: " << argv[0]
                << " trace.vwtrace [--csv FILE] [--chrome FILE] [--interval SEC]\n";
      return 2;
    } else if (input.empty()) {
      input = argv[i];
    } else {
      std::cerr << "only one input trace is accepted\n";
      return 2;
    }
  }
  if (input.empty() || interval_s <= 0) {
    std::cerr << "usage: " << argv[0]
              << " trace.vwtrace [--csv FILE] [--chrome FILE] [--interval SEC]\n";
    return 2;
  }

  try {
    const wren::BinaryTrace trace = wren::read_trace_binary_file(input);
    std::map<GroupKey, FlowStats> flows;
    for (const wren::PacketRecord& r : trace.records) {
      flows[GroupKey{r.flow, r.direction}].add(r);
    }

    std::cout << "# " << input << ": " << trace.records.size() << " records, "
              << flows.size() << " flow-direction group(s), host " << trace.header.host
              << " shard " << trace.header.shard << ", " << trace.header.dropped
              << " dropped at capture\n";
    std::cout << "flow                          pkts    data    acks   payload_mb  goodput_mbps"
                 "  wire_mbps  ia_mean_us  ia_p99_us\n";
    for (const auto& [key, st] : flows) {
      std::string name = flow_name(key.flow, key.dir);
      name.resize(std::max<std::size_t>(name.size(), 28), ' ');
      std::printf("%s %7llu %7llu %7llu %12.3f %13.3f %10.3f %11.1f %10.1f\n", name.c_str(),
                  static_cast<unsigned long long>(st.packets),
                  static_cast<unsigned long long>(st.data_packets),
                  static_cast<unsigned long long>(st.acks),
                  static_cast<double>(st.payload_bytes) / 1e6, st.goodput_mbps(), st.wire_mbps(),
                  st.ia_mean_us(), static_cast<double>(st.ia_quantile(0.99)) / 1e3);
    }

    if (!csv_path.empty()) {
      std::ofstream csv(csv_path);
      if (!csv) {
        std::cerr << "cannot open " << csv_path << "\n";
        return 1;
      }
      csv << "src,src_port,dst,dst_port,direction,packets,data_packets,acks,payload_bytes,"
             "wire_bytes,duration_s,goodput_mbps,wire_mbps,ia_mean_us,ia_p50_us,ia_p99_us\n";
      for (const auto& [key, st] : flows) {
        csv << key.flow.src << ',' << key.flow.src_port << ',' << key.flow.dst << ','
            << key.flow.dst_port << ','
            << (key.dir == net::TapDirection::kOutgoing ? "out" : "in") << ',' << st.packets
            << ',' << st.data_packets << ',' << st.acks << ',' << st.payload_bytes << ','
            << st.wire_bytes << ',' << st.duration_s() << ',' << st.goodput_mbps() << ','
            << st.wire_mbps() << ',' << st.ia_mean_us() << ','
            << static_cast<double>(st.ia_quantile(0.5)) / 1e3 << ','
            << static_cast<double>(st.ia_quantile(0.99)) / 1e3 << '\n';
      }
      std::cerr << "wrote " << csv_path << "\n";
    }

    if (!chrome_path.empty()) {
      // Counter samples: wire rate per flow per interval bucket. ts/dur are
      // microseconds in the trace_event format.
      const SimTime bucket_ns = seconds(interval_s);
      std::map<GroupKey, std::map<SimTime, std::uint64_t>> buckets;
      for (const wren::PacketRecord& r : trace.records) {
        buckets[GroupKey{r.flow, r.direction}][r.timestamp / bucket_ns] += r.wire_bytes;
      }
      std::ofstream ch(chrome_path);
      if (!ch) {
        std::cerr << "cannot open " << chrome_path << "\n";
        return 1;
      }
      ch << "{\"traceEvents\":[";
      bool first = true;
      for (const auto& [key, series] : buckets) {
        const std::string name = json_escape(flow_name(key.flow, key.dir));
        for (const auto& [bucket, bytes] : series) {
          const double mbps =
              static_cast<double>(bytes) * 8.0 / to_seconds(bucket_ns) / 1e6;
          if (!first) ch << ',';
          first = false;
          ch << "{\"name\":\"" << name << "\",\"cat\":\"capture\",\"ph\":\"C\",\"ts\":"
             << (bucket * bucket_ns) / 1000 << ",\"pid\":1,\"tid\":1,\"args\":{\"rate_mbps\":"
             << mbps << "}}";
        }
      }
      ch << "]}\n";
      std::cerr << "wrote " << chrome_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "vwcap-analyze: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
