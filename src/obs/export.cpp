#include "obs/export.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace vw::obs {

namespace {

std::string fmt(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, ptr);
}

/// JSON number token; NaN/Inf (empty histogram extremes) render as null.
std::string json_number(double v) { return std::isfinite(v) ? fmt(v) : "null"; }

/// The histogram invariant every exporter leans on: a populated histogram
/// has finite extremes; an empty one has NaN extremes (rendered as absent).
void check_extremes(const MetricValue& m) {
  if (m.kind != InstrumentKind::kHistogram) return;
  VW_REQUIRE(m.histogram.count > 0 ||
                 (std::isnan(m.histogram.min) && std::isnan(m.histogram.max)),
             "export: empty histogram '", m.name, "' carries non-NaN extremes");
  VW_REQUIRE(m.histogram.count == 0 ||
                 (std::isfinite(m.histogram.min) && std::isfinite(m.histogram.max)),
             "export: histogram '", m.name, "' has non-finite min/max with ",
             m.histogram.count, " samples");
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_text_table(std::ostream& out, const MetricsSnapshot& snapshot) {
  std::size_t width = 4;
  for (const MetricValue& m : snapshot.metrics) width = std::max(width, m.name.size());
  out << "telemetry @ " << fmt(to_seconds(snapshot.taken_at)) << "s (" << snapshot.metrics.size()
      << " instruments)\n";
  for (const MetricValue& m : snapshot.metrics) {
    check_extremes(m);
    out << "  " << std::left << std::setw(static_cast<int>(width + 2)) << m.name << std::right
        << std::setw(9) << kind_name(m.kind) << "  ";
    switch (m.kind) {
      case InstrumentKind::kCounter:
        out << m.count;
        break;
      case InstrumentKind::kGauge:
        out << fmt(m.value);
        break;
      case InstrumentKind::kHistogram:
        out << "count=" << m.histogram.count;
        if (m.histogram.count > 0) {
          out << " mean=" << fmt(m.histogram.mean()) << " min=" << fmt(m.histogram.min)
              << " p50=" << fmt(m.histogram.quantile(0.5))
              << " p99=" << fmt(m.histogram.quantile(0.99)) << " max=" << fmt(m.histogram.max);
        }
        break;
    }
    out << '\n';
  }
}

std::string metrics_json(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\"schema\":\"vw.metrics.v1\",\"taken_at_s\":" << fmt(to_seconds(snapshot.taken_at))
      << ",\"metrics\":[";
  bool first = true;
  for (const MetricValue& m : snapshot.metrics) {
    check_extremes(m);
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << json_escape(m.name) << "\",\"kind\":\"" << kind_name(m.kind)
        << '"';
    switch (m.kind) {
      case InstrumentKind::kCounter:
        out << ",\"value\":" << m.count;
        break;
      case InstrumentKind::kGauge:
        out << ",\"value\":" << json_number(m.value);
        break;
      case InstrumentKind::kHistogram: {
        const Histogram::Snapshot& h = m.histogram;
        out << ",\"count\":" << h.count << ",\"sum\":" << json_number(h.sum)
            << ",\"min\":" << json_number(h.min) << ",\"max\":" << json_number(h.max)
            << ",\"mean\":" << json_number(h.count > 0 ? h.mean()
                                                       : std::numeric_limits<double>::quiet_NaN())
            << ",\"p50\":" << json_number(h.quantile(0.5))
            << ",\"p90\":" << json_number(h.quantile(0.9))
            << ",\"p99\":" << json_number(h.quantile(0.99)) << ",\"buckets\":[";
        bool first_bucket = true;
        for (std::size_t k = 0; k < Histogram::kBuckets; ++k) {
          if (h.buckets[k] == 0) continue;
          if (!first_bucket) out << ',';
          first_bucket = false;
          out << "{\"le\":" << json_number(Histogram::bucket_upper(k))
              << ",\"count\":" << h.buckets[k] << '}';
        }
        out << ']';
        break;
      }
    }
    out << '}';
  }
  out << "]}";
  return out.str();
}

namespace {

void append_event_fields(std::ostream& out, const TraceEvent& ev, bool chrome) {
  // Chrome traces use microseconds; JSONL keeps seconds for humans.
  if (chrome) {
    out << "\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\"" << json_escape(ev.category)
        << "\",\"ph\":\"" << static_cast<char>(ev.phase) << "\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << fmt(static_cast<double>(ev.ts) / 1e3);
    if (ev.phase == EventPhase::kComplete) {
      out << ",\"dur\":" << fmt(static_cast<double>(ev.dur) / 1e3);
    } else {
      out << ",\"s\":\"g\"";  // global-scope instant marker
    }
  } else {
    out << "\"id\":" << ev.id << ",\"ts_s\":" << fmt(to_seconds(ev.ts))
        << ",\"dur_s\":" << fmt(to_seconds(ev.dur)) << ",\"phase\":\""
        << static_cast<char>(ev.phase) << "\",\"name\":\"" << json_escape(ev.name)
        << "\",\"category\":\"" << json_escape(ev.category) << '"';
  }
  if (!ev.args.empty()) {
    out << ",\"args\":{";
    bool first = true;
    for (const auto& [key, value] : ev.args) {
      if (!first) out << ',';
      first = false;
      out << '"' << json_escape(key) << "\":\"" << json_escape(value) << '"';
    }
    out << '}';
  } else if (chrome) {
    out << ",\"args\":{}";
  }
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out << ',';
    first = false;
    out << '{';
    append_event_fields(out, ev, /*chrome=*/true);
    out << '}';
  }
  out << "],\"displayTimeUnit\":\"ms\"}";
  return out.str();
}

std::string events_jsonl(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  for (const TraceEvent& ev : events) {
    out << '{';
    append_event_fields(out, ev, /*chrome=*/false);
    out << "}\n";
  }
  return out.str();
}

}  // namespace vw::obs
