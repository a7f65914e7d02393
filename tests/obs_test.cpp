// Unit tests for the observability subsystem: metrics registry semantics,
// histogram bucketing and quantiles, event-tracer ring behavior, exporter
// output (including Chrome trace JSON well-formedness).

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/scope.hpp"
#include "obs/trace.hpp"

namespace vw::obs {
namespace {

// --- a minimal JSON structural validator (enough to catch malformed output
// from the exporters: unbalanced structures, bad tokens, trailing garbage).

class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;  // skip the escaped char
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, RegisterLookupSnapshotReset) {
  SimTime now = seconds(3.0);
  MetricsRegistry reg([&now] { return now; });

  Counter& c = reg.counter("wren.trains.accepted");
  Gauge& g = reg.gauge("vttif.topology.edges");
  Histogram& h = reg.histogram("vadapt.sa.best_cost");
  EXPECT_EQ(reg.size(), 3u);

  // Get-or-create returns the same instrument.
  EXPECT_EQ(&reg.counter("wren.trains.accepted"), &c);
  EXPECT_EQ(&reg.gauge("vttif.topology.edges"), &g);
  EXPECT_EQ(&reg.histogram("vadapt.sa.best_cost"), &h);
  EXPECT_EQ(reg.size(), 3u);

  c.add(5);
  g.set(4.0);
  h.record(10.0);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.taken_at, seconds(3.0));
  ASSERT_EQ(snap.metrics.size(), 3u);
  // Sorted by name.
  EXPECT_EQ(snap.metrics[0].name, "vadapt.sa.best_cost");
  EXPECT_EQ(snap.metrics[1].name, "vttif.topology.edges");
  EXPECT_EQ(snap.metrics[2].name, "wren.trains.accepted");

  const MetricValue* cv = snap.find("wren.trains.accepted");
  ASSERT_NE(cv, nullptr);
  EXPECT_EQ(cv->kind, InstrumentKind::kCounter);
  EXPECT_EQ(cv->count, 5u);
  const MetricValue* gv = snap.find("vttif.topology.edges");
  ASSERT_NE(gv, nullptr);
  EXPECT_DOUBLE_EQ(gv->value, 4.0);
  const MetricValue* hv = snap.find("vadapt.sa.best_cost");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->histogram.count, 1u);
  EXPECT_DOUBLE_EQ(hv->histogram.min, 10.0);

  // Prefix filtering: exact name or "<prefix>." children only.
  EXPECT_EQ(reg.snapshot("wren").metrics.size(), 1u);
  EXPECT_EQ(reg.snapshot("wren.trains").metrics.size(), 1u);
  EXPECT_EQ(reg.snapshot("wren.trains.accepted").metrics.size(), 1u);
  EXPECT_EQ(reg.snapshot("wre").metrics.size(), 0u);
  EXPECT_EQ(reg.snapshot("vadapt").metrics.size(), 1u);

  // Reset zeroes values but keeps registrations and addresses.
  reg.reset();
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(&reg.counter("wren.trains.accepted"), &c);
}

TEST(MetricsRegistryTest, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x.count");
  EXPECT_THROW(reg.gauge("x.count"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x.count"), std::invalid_argument);
}

TEST(MetricsRegistryTest, InvalidNamesRejected) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
  EXPECT_THROW(reg.counter(".leading"), std::invalid_argument);
  EXPECT_THROW(reg.counter("trailing."), std::invalid_argument);
  EXPECT_THROW(reg.counter("a..b"), std::invalid_argument);
  EXPECT_THROW(reg.counter("Upper.case"), std::invalid_argument);
  EXPECT_THROW(reg.counter("sp ace"), std::invalid_argument);
  EXPECT_NO_THROW(reg.counter("ok.name_2.x"));
}

// --- Histogram ---------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 = [0, 1); bucket k >= 1 = [2^(k-1), 2^k).
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(0.999), 0u);
  EXPECT_EQ(Histogram::bucket_index(1.0), 1u);
  EXPECT_EQ(Histogram::bucket_index(1.999), 1u);
  EXPECT_EQ(Histogram::bucket_index(2.0), 2u);
  EXPECT_EQ(Histogram::bucket_index(3.999), 2u);
  EXPECT_EQ(Histogram::bucket_index(4.0), 3u);
  // Negative and NaN clamp to bucket 0.
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0u);

  for (std::size_t k = 1; k + 1 < Histogram::kBuckets; ++k) {
    // The bounds and the index function must agree at every boundary.
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower(k)), k) << "bucket " << k;
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper(k)), k + 1) << "bucket " << k;
  }
}

TEST(HistogramTest, CountsSumExtremes) {
  Histogram h;
  for (double x : {3.0, 5.0, 100.0, 0.25}) h.record(x);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 108.25);
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 108.25 / 4.0);
  EXPECT_EQ(s.buckets[Histogram::bucket_index(0.25)], 1u);
  EXPECT_EQ(s.buckets[Histogram::bucket_index(3.0)], 1u);
  EXPECT_EQ(s.buckets[Histogram::bucket_index(100.0)], 1u);
}

TEST(HistogramTest, EmptySnapshotHasNaNExtremes) {
  Histogram h;
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_TRUE(std::isnan(s.min));
  EXPECT_TRUE(std::isnan(s.max));
  EXPECT_TRUE(std::isnan(s.quantile(0.5)));
  // After reset, a populated histogram returns to the NaN state.
  h.record(7.0);
  h.reset();
  EXPECT_TRUE(std::isnan(h.snapshot().min));
}

TEST(HistogramTest, QuantilesAreMonotoneAndClamped) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  const Histogram::Snapshot s = h.snapshot();
  // Endpoints clamp to the observed extremes.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);
  // Monotone in q, and roughly tracking the true order statistic (log2
  // buckets are coarse: allow a factor-of-two band).
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double est = s.quantile(q);
    EXPECT_GE(est, prev) << "q=" << q;
    const double truth = q * 1000.0;
    EXPECT_GE(est, truth / 2.1) << "q=" << q;
    EXPECT_LE(est, truth * 2.1 + 2.0) << "q=" << q;
    prev = est;
  }
}

// --- EventTracer -------------------------------------------------------------

TEST(EventTracerTest, RingWraparoundKeepsNewestWithMonotoneIds) {
  EventTracer tracer(4);
  for (int i = 0; i < 6; ++i) tracer.instant("e" + std::to_string(i), "test");
  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  // The two oldest were evicted; ids stay monotone.
  EXPECT_EQ(events.front().name, "e2");
  EXPECT_EQ(events.back().name, "e5");
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].id, events[i - 1].id);
  }
}

TEST(EventTracerTest, SpanRecordsCompleteEventWithArgs) {
  SimTime now = 0;
  EventTracer tracer(16, [&now] { return now; });
  {
    EventTracer::Span span = tracer.span("work", "test");
    span.arg("key", "value");
    now = millis(5);
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, EventPhase::kComplete);
  EXPECT_EQ(events[0].ts, 0);
  EXPECT_EQ(events[0].dur, millis(5));
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "key");
  EXPECT_EQ(events[0].args[0].second, "value");
}

TEST(EventTracerTest, CompleteRejectsBackwardInterval) {
  EventTracer tracer(16);
  EXPECT_THROW(tracer.complete("bad", "test", millis(10), millis(5)),
               std::invalid_argument);
}

TEST(EventTracerTest, DisabledScopeSpanIsInert) {
  Scope disabled;  // no metrics, no tracer
  EXPECT_FALSE(disabled.enabled());
  EXPECT_EQ(disabled.counter("x.y"), nullptr);
  EXPECT_EQ(disabled.gauge("x.y"), nullptr);
  EXPECT_EQ(disabled.histogram("x.y"), nullptr);
  add(disabled.counter("x.y"));              // null-tolerant helpers: no crash
  set(disabled.gauge("x.y"), 1.0);
  record(disabled.histogram("x.y"), 1.0);
  {
    EventTracer::Span span = disabled.span("noop", "test");
    span.arg("k", "v");
    span.end();
  }
  disabled.instant("noop", "test");
}

// --- exporters ---------------------------------------------------------------

TEST(ObsExportTest, MetricsJsonIsWellFormed) {
  MetricsRegistry reg;
  reg.counter("a.count").add(3);
  reg.gauge("b.level").set(-2.5);
  Histogram& h = reg.histogram("c.dist");
  h.record(4.0);
  h.record(100.0);
  reg.histogram("d.empty");  // empty histogram: min/max must export as null

  const std::string json = metrics_json(reg.snapshot());
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"schema\":\"vw.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"min\":null"), std::string::npos);
}

TEST(ObsExportTest, ChromeTraceJsonIsWellFormed) {
  SimTime now = 0;
  EventTracer tracer(64, [&now] { return now; });
  tracer.instant("mark \"quoted\"", "cat\\slash", {{"k", "line1\nline2"}});
  now = millis(2);
  {
    EventTracer::Span span = tracer.span("phase", "test");
    span.arg("x", "1");
    now = millis(7);
  }
  const std::string json = chrome_trace_json(tracer.events());
  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);

  // JSONL: every line is itself valid JSON.
  std::istringstream lines(events_jsonl(tracer.events()));
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonValidator(line).valid()) << line;
    ++n;
  }
  EXPECT_EQ(n, 2u);
}

TEST(ObsExportTest, TextTableCoversEveryInstrument) {
  MetricsRegistry reg;
  reg.counter("a.count").add(1);
  reg.gauge("b.level").set(2.0);
  reg.histogram("c.dist").record(3.0);

  std::ostringstream table;
  write_text_table(table, reg.snapshot());
  EXPECT_NE(table.str().find("a.count"), std::string::npos);
  EXPECT_NE(table.str().find("b.level"), std::string::npos);
  EXPECT_NE(table.str().find("c.dist"), std::string::npos);
}

// --- concurrency (run under TSan in CI) -------------------------------------

TEST(ObsConcurrencyTest, InstrumentsAreRaceFreeAndExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("t.count");
  Gauge& g = reg.gauge("t.level");
  Histogram& h = reg.histogram("t.dist");

  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, &g, &h, t] {
      for (int i = 0; i < kIters; ++i) {
        c.add(1);
        g.set(static_cast<double>(t));
        h.record(static_cast<double>(i % 100));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 99.0);
}

TEST(ObsConcurrencyTest, RegistryGetOrCreateIsThreadSafe) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < 50; ++i) {
        reg.counter("shared.counter_" + std::to_string(i % 10)).add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(reg.size(), 10u);
  std::uint64_t total = 0;
  for (const MetricValue& m : reg.snapshot().metrics) total += m.count;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * 50);
}

TEST(ObsConcurrencyTest, TracerConcurrentRecording) {
  EventTracer tracer(256);
  constexpr int kThreads = 4;
  constexpr int kEvents = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer, t] {
      for (int i = 0; i < kEvents; ++i) {
        tracer.instant("e", "thread" + std::to_string(t));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(tracer.recorded(), static_cast<std::uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(tracer.events().size(), tracer.capacity());
  EXPECT_EQ(tracer.dropped(), tracer.recorded() - tracer.capacity());
}

}  // namespace
}  // namespace vw::obs
