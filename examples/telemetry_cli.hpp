#pragma once

// The telemetry options the cluster examples share and the exports they
// write after a run:
//   --metrics-json FILE    export the final metrics snapshot as JSON
//   --trace FILE           export Chrome trace_event JSON (about:tracing)
//   --events-jsonl FILE    export the trace events as JSONL
//   --no-telemetry         disable the observability subsystem entirely
//   --capture DIR          persist per-host vw.trace.v1 packet-trace shards
// A missing value or an unknown option exits with the usage-error status 2.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_args.hpp"
#include "obs/export.hpp"
#include "virtuoso/system.hpp"

namespace vw::examples {

struct TelemetryOptions {
  std::string metrics_json;
  std::string trace;
  std::string events_jsonl;
  std::string capture_dir;
  bool telemetry = true;

  /// Consumes option argv[i] (advancing i past its value) when it is one of
  /// the options above; returns false for any other token.
  bool parse(int argc, char** argv, int& i) {
    std::string* value = nullptr;
    if (std::strcmp(argv[i], "--metrics-json") == 0) {
      value = &metrics_json;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      value = &trace;
    } else if (std::strcmp(argv[i], "--events-jsonl") == 0) {
      value = &events_jsonl;
    } else if (std::strcmp(argv[i], "--capture") == 0) {
      value = &capture_dir;
    } else if (std::strcmp(argv[i], "--no-telemetry") == 0) {
      telemetry = false;
      return true;
    } else {
      return false;
    }
    *value = cli::need_value(argc, argv, i++);
    return true;
  }
};

[[noreturn]] inline void unknown_option(const char* option) {
  std::cerr << "unknown option: " << option << "\n";
  std::exit(2);
}

inline void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    std::exit(1);
  }
  out << content;
  std::cout << "wrote " << path << "\n";
}

/// Writes each requested export of `system`'s metrics and trace events;
/// nothing when telemetry is off.
inline void export_telemetry(const TelemetryOptions& opt, virtuoso::VirtuosoSystem& system) {
  if (!opt.telemetry) return;
  const obs::MetricsSnapshot full = system.metrics()->snapshot();
  if (!opt.metrics_json.empty()) write_file(opt.metrics_json, obs::metrics_json(full));
  if (!opt.trace.empty()) {
    write_file(opt.trace, obs::chrome_trace_json(system.tracer()->events()));
  }
  if (!opt.events_jsonl.empty()) {
    write_file(opt.events_jsonl, obs::events_jsonl(system.tracer()->events()));
  }
}

}  // namespace vw::examples
