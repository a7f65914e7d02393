// vwcap-extract: merge vw.trace.v1 capture shards into one time-ordered
// vw.trace.v1 file, optionally filtering by flow endpoints / ports / time
// window (the exact-pcap-extract equivalent).
//
//   $ vwcap-extract [options] shard.vwtrace [shard2.vwtrace ...]
//     -o FILE          output path (default: merged.vwtrace)
//     --src N          keep records with FlowKey.src == N
//     --dst N          keep records with FlowKey.dst == N
//     --src-port N     keep records with FlowKey.src_port == N
//     --dst-port N     keep records with FlowKey.dst_port == N
//     --from SEC       keep records with timestamp >= SEC (seconds)
//     --to SEC         keep records with timestamp <= SEC (seconds)
//     --useful         keep only analysis-relevant records (outgoing data +
//                      incoming pure ACKs), wren::is_useful
//
// The merged header carries host = 0xffffffff (multi-host corpus), shard 0,
// and the summed capture drop counts of the inputs. Exit status: 0 on
// success, 1 on any I/O or parse failure, 2 on usage errors.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "wren/offline.hpp"

using namespace vw;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [-o FILE] [--src N] [--dst N] [--src-port N] [--dst-port N]\n"
               "       [--from SEC] [--to SEC] [--useful] shard.vwtrace [...]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "merged.vwtrace";
  wren::TraceFilter filter;
  std::vector<std::string> inputs;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0) {
      out_path = cli::need_value(argc, argv, i++);
    } else if (std::strcmp(argv[i], "--src") == 0) {
      filter.src = cli::uint_value<net::NodeId>(argc, argv, i++);
    } else if (std::strcmp(argv[i], "--dst") == 0) {
      filter.dst = cli::uint_value<net::NodeId>(argc, argv, i++);
    } else if (std::strcmp(argv[i], "--src-port") == 0) {
      filter.src_port = cli::uint_value<std::uint16_t>(argc, argv, i++);
    } else if (std::strcmp(argv[i], "--dst-port") == 0) {
      filter.dst_port = cli::uint_value<std::uint16_t>(argc, argv, i++);
    } else if (std::strcmp(argv[i], "--from") == 0) {
      filter.from = seconds(cli::double_value(argc, argv, i++));
    } else if (std::strcmp(argv[i], "--to") == 0) {
      filter.to = seconds(cli::double_value(argc, argv, i++));
    } else if (std::strcmp(argv[i], "--useful") == 0) {
      filter.useful_only = true;
    } else if (argv[i][0] == '-') {
      std::cerr << "unknown option: " << argv[i] << "\n";
      usage(argv[0]);
    } else {
      inputs.push_back(argv[i]);
    }
  }
  if (inputs.empty()) usage(argv[0]);

  try {
    std::vector<std::vector<wren::PacketRecord>> shards;
    std::uint64_t dropped = 0;
    std::uint64_t total_in = 0;
    for (const std::string& path : inputs) {
      wren::BinaryTrace trace = wren::read_trace_binary_file(path);
      dropped += trace.header.dropped;
      total_in += trace.records.size();
      std::cerr << path << ": host " << trace.header.host << " shard " << trace.header.shard
                << ", " << trace.records.size() << " records, " << trace.header.dropped
                << " dropped at capture\n";
      shards.push_back(std::move(trace.records));
    }

    std::vector<wren::PacketRecord> merged =
        wren::apply_filter(wren::merge_traces(shards), filter);

    std::ofstream out(out_path, std::ios::out | std::ios::binary);
    if (!out) {
      std::cerr << "cannot open " << out_path << " for writing\n";
      return 1;
    }
    wren::TraceFileHeader header;
    header.host = net::kInvalidNode;  // multi-host corpus
    header.dropped = dropped;
    wren::write_trace_binary(out, header, merged);
    std::cerr << "merged " << total_in << " records from " << inputs.size() << " shard(s) -> "
              << merged.size() << " after filtering -> " << out_path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "vwcap-extract: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
