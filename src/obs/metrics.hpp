#pragma once

#include <atomic>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/time.hpp"

// Metrics instruments for the Wren/Virtuoso stack.
//
// The paper's thesis is that measurement should be free and continuously
// available; this registry applies the same principle to the system's own
// behavior. Three instrument kinds:
//
//   Counter   — monotone event count (trains accepted, frames forwarded)
//   Gauge     — last-written level (topology edge count, queue depth)
//   Histogram — fixed log2-bucket distribution (train lengths, durations)
//
// Design constraints:
//   * hot-path updates are lock-free: plain relaxed atomics (counters and
//     gauges) or atomics + a CAS min/max loop (histograms); no instrument
//     operation ever takes the registry mutex;
//   * instrument addresses are stable for the registry's lifetime, so
//     subsystems resolve a pointer once (cold) and update through it (hot);
//   * names are hierarchical lowercase dotted identifiers
//     ("wren.trains.accepted", "vadapt.sa.moves.rejected") so snapshots
//     can be filtered by subsystem prefix;
//   * snapshots carry virtual-clock timestamps supplied by the simulator.

namespace vw::obs {

/// Monotone event counter; add() is a single relaxed atomic increment.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written level; set() is a single relaxed atomic store.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log2 histogram over non-negative samples.
///
/// Bucket 0 covers [0, 1); bucket k >= 1 covers [2^(k-1), 2^k). record() is
/// three relaxed atomic adds plus two CAS min/max updates — no locks, safe
/// from concurrent SA chains. Quantiles are estimated by linear
/// interpolation inside the covering bucket (clamped to the observed
/// min/max), which is tight enough for operational dashboards.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  Histogram();

  void record(double x);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;  ///< NaN when count == 0
    double max = 0;  ///< NaN when count == 0
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
    /// Estimated order statistic, q in [0, 1]; NaN when empty.
    double quantile(double q) const;
  };

  Snapshot snapshot() const;
  void reset();

  /// Inclusive-exclusive bounds of bucket k: [lower, upper).
  static double bucket_lower(std::size_t k);
  static double bucket_upper(std::size_t k);
  /// The bucket a sample lands in (negative/NaN samples clamp to bucket 0).
  static std::size_t bucket_index(double x);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> min_bits_;  ///< bit pattern of the running min
  std::atomic<std::uint64_t> max_bits_;  ///< bit pattern of the running max
};

enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

std::string_view kind_name(InstrumentKind kind);

/// One instrument's state at snapshot time. Counters fill `count`; gauges
/// fill `value`; histograms fill `histogram` (min/max are NaN when empty).
struct MetricValue {
  std::string name;
  InstrumentKind kind = InstrumentKind::kCounter;
  std::uint64_t count = 0;          ///< counter value / histogram sample count
  double value = 0;                 ///< gauge level
  Histogram::Snapshot histogram{};  ///< populated for histograms only
};

struct MetricsSnapshot {
  SimTime taken_at = 0;
  std::vector<MetricValue> metrics;  ///< sorted by name

  const MetricValue* find(std::string_view name) const;
};

/// True when `name` is a valid hierarchical instrument name:
/// dot-separated non-empty runs of [a-z0-9_].
bool valid_metric_name(std::string_view name);

/// Owns every instrument. Registration (get-or-create by name) takes a
/// mutex — callers resolve instruments once at wiring time; updates through
/// the returned references never touch the registry again.
class MetricsRegistry {
 public:
  using ClockFn = std::function<SimTime()>;

  /// `clock` supplies snapshot timestamps (virtual time); may be null.
  explicit MetricsRegistry(ClockFn clock = nullptr) : clock_(std::move(clock)) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create by name. Requires a valid name; requires that an
  /// existing instrument under this name has the same kind. The returned
  /// reference stays valid (and lock-free to update) for the registry's
  /// lifetime — only the name→entry map itself is guarded.
  Counter& counter(std::string_view name) VW_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) VW_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name) VW_EXCLUDES(mu_);

  /// Consistent point-in-time copy of every instrument, sorted by name.
  /// With `prefix` non-empty, only instruments whose name equals the prefix
  /// or starts with "<prefix>." are included.
  MetricsSnapshot snapshot(std::string_view prefix = {}) const VW_EXCLUDES(mu_);

  /// Zero every instrument (names stay registered, addresses stay valid).
  void reset() VW_EXCLUDES(mu_);

  std::size_t size() const VW_EXCLUDES(mu_);

 private:
  struct Entry {
    InstrumentKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(std::string_view name, InstrumentKind kind) VW_EXCLUDES(mu_);

  ClockFn clock_;
  mutable Mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_ VW_GUARDED_BY(mu_);
};

}  // namespace vw::obs
