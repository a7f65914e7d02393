// vwcap-match: match data frames across two vw.trace.v1 capture points and
// report the per-hop latency/loss distribution (the exact-pcap-match
// equivalent). Frames pair by (flow, seq, payload length), retransmissions
// in FIFO order; latency is NIC-departure at A to NIC-delivery at B, so on
// an idle path it equals propagation + downstream serialization.
//
//   $ vwcap-match from.vwtrace to.vwtrace [--csv FILE] [--expect-min-us N]
//
// --expect-min-us asserts the minimum observed latency is at least N
// microseconds (CI uses it to pin capture timestamps against configured
// link propagation delays). Exit status: 0 on success (and assertion pass),
// 1 on failure or when no frame matched.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_args.hpp"
#include "wren/offline.hpp"

using namespace vw;

int main(int argc, char** argv) {
  std::string from_path;
  std::string to_path;
  std::string csv_path;
  double expect_min_us = -1;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      csv_path = cli::need_value(argc, argv, i++);
    } else if (std::strcmp(argv[i], "--expect-min-us") == 0) {
      expect_min_us = cli::double_value(argc, argv, i++);
    } else if (argv[i][0] == '-') {
      std::cerr << "usage: " << argv[0]
                << " from.vwtrace to.vwtrace [--csv FILE] [--expect-min-us N]\n";
      return 2;
    } else if (from_path.empty()) {
      from_path = argv[i];
    } else if (to_path.empty()) {
      to_path = argv[i];
    } else {
      std::cerr << "exactly two input traces are required\n";
      return 2;
    }
  }
  if (to_path.empty()) {
    std::cerr << "usage: " << argv[0]
              << " from.vwtrace to.vwtrace [--csv FILE] [--expect-min-us N]\n";
    return 2;
  }

  try {
    const wren::BinaryTrace from = wren::read_trace_binary_file(from_path);
    const wren::BinaryTrace to = wren::read_trace_binary_file(to_path);
    const wren::MatchResult result = wren::match_traces(from.records, to.records);

    std::cout << "from: " << from_path << " (host " << from.header.host << ", "
              << from.records.size() << " records)\n"
              << "to:   " << to_path << " (host " << to.header.host << ", "
              << to.records.size() << " records)\n"
              << "matched frames:   " << result.matched.size() << "\n"
              << "lost (from-only): " << result.unmatched_from << "\n"
              << "to-only frames:   " << result.unmatched_to << "\n";
    if (result.matched.empty()) {
      std::cerr << "vwcap-match: no frame matched between the two capture points\n";
      return 1;
    }
    auto us = [](SimTime t) { return static_cast<double>(t) / 1e3; };
    std::cout << "latency us: min " << us(result.min_latency()) << "  mean "
              << result.mean_latency_ns() / 1e3 << "  p50 " << us(result.latency_quantile(0.5))
              << "  p99 " << us(result.latency_quantile(0.99)) << "  max "
              << us(result.max_latency()) << "\n";

    if (!csv_path.empty()) {
      std::ofstream csv(csv_path);
      if (!csv) {
        std::cerr << "cannot open " << csv_path << "\n";
        return 1;
      }
      csv << "src,src_port,dst,dst_port,seq,payload_bytes,sent_s,latency_us\n";
      for (const wren::MatchedFrame& m : result.matched) {
        csv << m.flow.src << ',' << m.flow.src_port << ',' << m.flow.dst << ','
            << m.flow.dst_port << ',' << m.seq << ',' << m.payload_bytes << ','
            << to_seconds(m.sent_at) << ',' << us(m.latency()) << '\n';
      }
      std::cerr << "wrote " << csv_path << "\n";
    }

    if (expect_min_us >= 0 && us(result.min_latency()) < expect_min_us) {
      std::cerr << "vwcap-match: min latency " << us(result.min_latency())
                << " us below expected " << expect_min_us << " us\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "vwcap-match: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
