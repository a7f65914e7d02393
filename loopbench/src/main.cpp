// loopbench — the integrated-loop benchmark program.
//
//   loopbench --workload {bsp_wren|chaos_adapt|brite_fleet} --seed N
//             --seconds S --trace {0|1} [--revision REV]
//
// Repeats one workload's scenario for S wall seconds on the serial
// sim::Simulator, checks its outputs, and prints as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Earlier
// lines carry the run context, the simulated statistics and a summary.
// Exit status is nonzero when any output check fails.
//
// Iteration i runs the scenario on input seed sub_seed(i % K); the first K
// iterations fix the simulated outcomes, which are a pure function of
// --seed. Later iterations only add timing samples.

#include <malloc.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

using namespace loopbench;

namespace {

struct Workload {
  const char* name;
  ScenarioFn run;
  std::size_t inputs;  ///< K: distinct input seeds cycled per run
};

constexpr Workload kWorkloads[] = {
    {"bsp_wren", run_bsp_wren, 2},
    {"chaos_adapt", run_chaos_adapt, 3},
    {"brite_fleet", run_brite_fleet, 12},
};

/// adapt_ms_tail is this percentile; runs continue until at least
/// kMinAdaptSamples samples exist, so >= 25 lie beyond it. p90 spread up to
/// 0.14 of its median from run to run on a shared machine; p75 holds.
constexpr double kTailQuantile = 0.75;
constexpr std::size_t kMinAdaptSamples = 100;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"wall_s_per_sim_s", "s/s"},  {"setup_s", "s"},
    {"peak_rss_mb", "MB"},        {"adapt_ms_p50", "ms"},
    {"adapt_ms_tail", "ms"},      {"app_goodput_mbps", "Mb/s"},
    {"plan_cost_mbps", "Mb/s"},   {"wren_err_pct", "%"},
};

constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"net.packets_delivered", "count"},
    {"net.packets_dropped", "count"},
    {"net.ns_per_packet", "ns"},
    {"net.ns_per_packet.ack", "ns"},
    {"net.ns_per_packet.data", "ns"},
    {"transport.tcp.retransmits", "count"},
    {"transport.goodput_ratio", "ratio"},
    {"wren.records", "count"},
    {"wren.trains", "count"},
    {"wren.observations", "count"},
    {"wren.train_yield", "ratio"},
    {"wren.replay_ns_per_record", "ns"},
    {"wren.replay_ns_per_record.ack", "ns"},
    {"wren.replay_ns_per_record.data", "ns"},
    {"wren.replay_records", "count"},
    {"vnet.control.messages", "count"},
    {"vnet.control.bytes", "bytes"},
    {"vnet.control.resends", "count"},
    {"vnet.control.reconnects", "count"},
    {"soap.report_encode_ns", "ns"},
    {"soap.report_codec_ns", "ns"},
    {"wren.federation.summary_bytes", "bytes"},
    {"wren.fedsum_codec_ns", "ns"},
    {"wren.fedsum_entries", "count"},
    {"view.updates", "count"},
    {"view.rejected", "count"},
    {"view.capacity_graph_ms", "ms"},
    {"vttif.current_demands_ms", "ms"},
    {"vttif.demand_pairs", "count"},
    {"vadapt.warm_ms", "ms"},
    {"vadapt.cold_ms", "ms"},
    {"vadapt.warm_starts", "count"},
    {"vadapt.cold_starts", "count"},
    {"vadapt.warm_share", "ratio"},
    {"vadapt.warm.delta_pairs", "count"},
    {"vm.migrations.started", "count"},
    {"vm.migrations.failed", "count"},
    {"virtuoso.replans", "count"},
    {"virtuoso.daemons_dead", "count"},
    {"setup.topology_s", "s"},
    {"setup.bootstrap_s", "s"},
    {"setup.vms_s", "s"},
    {"loop.unattributed_s", "s"},
    {"obs.trace_overhead_pct", "%"},
    {"raw.wall_s_per_sim_s", "s/s"},
    {"raw.adapt_ms_p50", "ms"},
    {"raw.adapt_ms_tail", "ms"},
    {"calib.machine_speed", "ratio"},
};

/// Spans that partition an iteration's wall time (nested ones, such as the
/// report encode+send inside the event loop, are excluded).
constexpr const char* kTopLevelSpans[] = {"sim",         "vadapt",       "view",
                                          "vttif",       "calibrate",    "replay.net",
                                          "replay.wren", "replay.soap",  "replay.fedsum"};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string revision = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "loopbench: " << why
            << "\nusage: loopbench --workload {bsp_wren|chaos_adapt|brite_fleet} --seed N "
               "--seconds S --trace {0|1} [--revision REV]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing value");
    const std::string key = argv[i];
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = std::stoi(value);
      } else if (key == "--revision") {
        opt.revision = value;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !(opt.seconds > 0) ||
      (opt.trace != 0 && opt.trace != 1)) {
    usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");
  }
  return opt;
}

std::uint64_t sub_seed(const Workload& w, std::uint64_t seed, std::size_t i) {
  const std::size_t k = i % w.inputs;
  if (k == 0) return seed;
  // Every chaos run also replays the two seeds with committed goldens.
  if (std::strcmp(w.name, "chaos_adapt") == 0) return k == 1 ? 42 : 7;
  return vw::RngService(seed).seed_for("loopbench.input." + std::to_string(k));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Timed {
  Iteration it;
  double wall_s = 0;  ///< whole iteration, set-up through replays
  double attributed_s = 0;
};

/// Iterations in the whole cycles over the K inputs among the first `n`.
std::size_t whole_cycles(std::size_t n, std::size_t k) { return n / k * k; }

/// Runs iterations until `deadline` has passed, at least one whole cycle of
/// the K inputs has run and, when `need_adapt`, whole cycles hold at least
/// kMinAdaptSamples adaptation samples. Statistics weigh every input the
/// same: timings take a median per input, adaptation quantiles pool whole
/// cycles only. So a run may stop mid-cycle and ends soon after its deadline
/// even when one cycle takes most of it.
std::vector<Timed> run_phase(const Workload& w, const Options& opt, bool traced,
                             Clock::time_point deadline, bool need_adapt) {
  std::vector<Timed> out;
  std::size_t adapt_samples = 0, cycle_samples = 0;
  for (std::size_t i = 0;; ++i) {
    if (i % w.inputs == 0) cycle_samples = adapt_samples;
    const bool enough =
        i >= w.inputs && (!need_adapt || cycle_samples >= kMinAdaptSamples);
    if (enough && Clock::now() >= deadline) break;
    Ledger ledger(traced);
    const auto t0 = Clock::now();
    Timed t;
    t.it = w.run(sub_seed(w, opt.seed, i), ledger);
    t.wall_s = seconds_since(t0);
    t.attributed_s = t.it.setup_s;
    for (const char* span : kTopLevelSpans) t.attributed_s += ledger.seconds(span);
    adapt_samples += t.it.adapt_ms.size();
    out.push_back(std::move(t));
  }
  return out;
}

std::string sim_stats_json(const std::vector<Timed>& runs, std::size_t k) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < k; ++i) {
    const Iteration& it = runs[i].it;
    os << (i ? ", " : "") << "\"" << i << "\": {";
    bool first = true;
    for (const auto& [name, v] : it.sim) {
      os << (first ? "" : ", ") << "\"" << name << "\": " << num(v);
      first = false;
    }
    os << ", \"app_goodput_mbps\": " << num(it.goodput_mbps)
       << ", \"plan_cost_mbps\": " << num(it.plan_cost_mbps)
       << ", \"wren_err_pct\": " << num(it.wren_err_pct)
       << ", \"signature\": " << json_string(it.signature) << "}";
  }
  os << "}";
  return os.str();
}

double mean_over(const std::vector<Timed>& runs, std::size_t k, double Iteration::*field) {
  double s = 0;
  for (std::size_t i = 0; i < k; ++i) s += runs[i].it.*field;
  return s / static_cast<double>(k);
}

/// Median of `field` over the iterations of each input, averaged over the
/// K inputs: inputs differ in cost, and this keeps their weights equal.
double per_input_median(const std::vector<Timed>& runs, std::size_t k,
                        double (*field)(const Timed&)) {
  double sum = 0;
  for (std::size_t input = 0; input < k; ++input) {
    std::vector<double> v;
    for (std::size_t i = input; i < runs.size(); i += k) v.push_back(field(runs[i]));
    sum += median(v);
  }
  return sum / static_cast<double>(k);
}

double wall_per_sim(const Timed& t) { return t.it.loop_wall_s / t.it.sim_s; }
double scaled_wall_per_sim(const Timed& t) { return t.it.loop_scaled_s / t.it.sim_s; }
/// Mean machine speed over the iteration's timed slices, weighted by time.
double loop_speed(const Timed& t) { return t.it.loop_scaled_s / t.it.loop_wall_s; }
double setup_seconds(const Timed& t) { return t.it.setup_s; }

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // Pin glibc's mmap threshold at its default: left dynamic, it rises after
  // the first iteration frees the daemons' trace rings, and later set-ups
  // would reuse warm heap pages that a fresh process never has.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (opt.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) usage(("unknown workload " + opt.workload).c_str());

  const auto start = Clock::now();
  const auto at = [&](double fraction) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(opt.seconds * fraction));
  };

  // Timed runs: untraced only. Traced runs: an untraced half, then a traced
  // half over the same inputs, so tracing overhead and "tracing only
  // observes" are measured within one process.
  std::vector<Timed> plain = run_phase(*w, opt, false, at(opt.trace ? 0.5 : 1.0), !opt.trace);
  std::vector<Timed> traced;
  if (opt.trace) traced = run_phase(*w, opt, true, at(1.0), false);

  const std::size_t k = w->inputs;
  std::vector<Check> checks;
  for (const std::vector<Timed>* phase : {&plain, &traced}) {
    for (std::size_t i = 0; i < std::min(k, phase->size()); ++i) {
      for (const Check& c : (*phase)[i].it.checks) checks.push_back(c);
    }
  }
  if (opt.trace) {
    checks.push_back(
        {"trace.observes_only", sim_stats_json(plain, k) == sim_stats_json(traced, k)});
  }
  std::size_t max_threads = live_threads();
  for (const std::vector<Timed>* phase : {&plain, &traced}) {
    for (const Timed& t : *phase) max_threads = std::max(max_threads, t.it.max_threads);
  }
  checks.push_back({"threads.within_nproc", max_threads <= usable_cpus()});
  std::size_t failed = 0;
  for (const Check& c : checks) {
    if (!c.ok) {
      ++failed;
      std::cerr << "loopbench: CHECK FAILED: " << c.name << "\n";
    }
  }

  std::vector<double> adapt, adapt_scaled;
  for (std::size_t r = 0; r < whole_cycles(plain.size(), k); ++r) {
    const Iteration& it = plain[r].it;
    for (std::size_t i = 0; i < it.adapt_ms.size(); ++i) {
      adapt.push_back(it.adapt_ms[i]);
      adapt_scaled.push_back(it.adapt_ms[i] * it.adapt_speed[i]);
    }
  }

  std::cout << "{\"context\": {\"revision\": " << json_string(opt.revision)
            << ", \"nproc\": " << usable_cpus() << ", \"cpu\": " << json_string(cpu_model())
            << ", \"compiler\": " << json_string(std::string("g++ ") + __VERSION__)
            << ", \"build_type\": " << json_string(LOOPBENCH_BUILD_TYPE)
            << ", \"vw_audit\": " << (VW_ENABLE_AUDIT ? "true" : "false")
            << ", \"planner_threads\": " << kPlannerThreads
            << ", \"max_threads\": " << max_threads
            << ", \"capture_writers\": \"off\", \"engine\": \"sim::Simulator\""
            << ", \"workload\": " << json_string(w->name) << ", \"seed\": " << opt.seed
            << ", \"seconds\": " << num(opt.seconds) << ", \"trace\": " << opt.trace
            << ", \"iterations\": " << plain.size() + traced.size()
            << ", \"adapt_ms_samples\": " << adapt.size()
            << ", \"adapt_ms_tail_quantile\": " << num(kTailQuantile) << "}}\n";
  std::cout << "{\"sim\": " << sim_stats_json(opt.trace ? traced : plain, k) << "}\n";
  const double failed_ratio =
      checks.empty() ? 0.0 : static_cast<double>(failed) / static_cast<double>(checks.size());
  std::vector<double> speed;
  for (const Timed& t : plain) speed.push_back(loop_speed(t));
  std::cout << "{\"summary\": {\"failed_ratio\": {\"value\": " << num(failed_ratio)
            << ", \"unit\": \"ratio\"}, \"unscaled\": {\"wall_s_per_sim_s\": "
            << num(per_input_median(plain, k, wall_per_sim))
            << ", \"adapt_ms_p50\": " << num(median(adapt))
            << ", \"adapt_ms_tail\": " << num(quantile(adapt, kTailQuantile))
            << "}, \"machine_speed_p50\": " << num(median(speed)) << "}}\n";

  std::vector<std::pair<std::string, double>> values;
  if (!opt.trace) {
    values = {
        {"wall_s_per_sim_s", per_input_median(plain, k, scaled_wall_per_sim)},
        {"setup_s", per_input_median(plain, k, setup_seconds)},
        {"peak_rss_mb", peak_rss_mb()},
        {"adapt_ms_p50", median(adapt_scaled)},
        {"adapt_ms_tail", quantile(adapt_scaled, kTailQuantile)},
        {"app_goodput_mbps", mean_over(plain, k, &Iteration::goodput_mbps)},
        {"plan_cost_mbps", mean_over(plain, k, &Iteration::plan_cost_mbps)},
        {"wren_err_pct", mean_over(plain, k, &Iteration::wren_err_pct)},
    };
  } else {
    std::vector<double> unattributed;
    for (const Timed& t : traced) unattributed.push_back(t.wall_s - t.attributed_s);
    // Whole-run values; the raw.* ones come from the untraced half, so they
    // sit beside the scaled end-to-end figures a --trace 0 run reports.
    const std::map<std::string, double, std::less<>> whole_run = {
        {"loop.unattributed_s", median(unattributed)},
        {"obs.trace_overhead_pct", (per_input_median(traced, k, scaled_wall_per_sim) /
                                        per_input_median(plain, k, scaled_wall_per_sim) -
                                    1.0) *
                                       100.0},
        {"raw.wall_s_per_sim_s", per_input_median(plain, k, wall_per_sim)},
        {"raw.adapt_ms_p50", median(adapt)},
        {"raw.adapt_ms_tail", quantile(adapt, kTailQuantile)},
        {"calib.machine_speed", median(speed)},
    };
    for (const Metric& m : kPerLayer) {
      if (const auto found = whole_run.find(m.name); found != whole_run.end()) {
        values.emplace_back(m.name, found->second);
        continue;
      }
      std::vector<double> samples;
      for (const Timed& t : traced) {
        auto found = t.it.layer.find(m.name);
        samples.push_back(found == t.it.layer.end() ? 0.0 : found->second);
      }
      values.emplace_back(m.name, median(samples));
    }
  }

  std::ostringstream result;
  result << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << checks.size() << ", \"failed\": " << failed
         << ", \"metrics\": {";
  const auto unit_of = [&](const std::string& name) -> const char* {
    for (const Metric& m : kEndToEnd) {
      if (name == m.name) return m.unit;
    }
    for (const Metric& m : kPerLayer) {
      if (name == m.name) return m.unit;
    }
    return "";
  };
  for (std::size_t i = 0; i < values.size(); ++i) {
    result << (i ? ", " : "") << "\"" << values[i].first << "\": {\"value\": "
           << num(values[i].second) << ", \"unit\": \"" << unit_of(values[i].first) << "\"}";
  }
  result << "}}";
  std::cout << result.str() << std::endl;
  return failed == 0 ? 0 : 1;
}
