#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Exporters: the same snapshot renders as a human text table or as JSON
// (consumed by tools/check_metrics.py and the bench pipeline). Traces
// export as Chrome trace_event JSON — loadable in about:tracing / Perfetto
// — or JSONL.

namespace vw::obs {

/// Aligned human-readable table, one instrument per line.
void write_text_table(std::ostream& out, const MetricsSnapshot& snapshot);

/// JSON document (schema "vw.metrics.v1"): {"schema", "taken_at_s",
/// "metrics": [{name, kind, ...}]}. Histogram min/max are null when empty.
std::string metrics_json(const MetricsSnapshot& snapshot);

/// Chrome trace_event JSON object format: {"traceEvents": [...],
/// "displayTimeUnit": "ms"}; timestamps in microseconds of virtual time.
std::string chrome_trace_json(const std::vector<TraceEvent>& events);

/// One JSON object per line (id, ts_s, dur_s, phase, name, category, args).
std::string events_jsonl(const std::vector<TraceEvent>& events);

/// Escape a string for embedding inside a JSON string literal.
std::string json_escape(std::string_view s);

}  // namespace vw::obs
