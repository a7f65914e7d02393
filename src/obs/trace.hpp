#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/time.hpp"

// Typed event tracing with a bounded ring buffer.
//
// Subsystems record instant events (a SIC decision, a VTTIF matrix update)
// and spans (a VADAPT optimize run, a VM migration) against the simulator's
// virtual clock. The buffer is a fixed-capacity ring: when full, the oldest
// events are overwritten and counted as dropped, so tracing can stay on in
// long runs without unbounded memory. Events carry monotone ids, exported
// with each JSONL line, and the whole buffer exports to Chrome trace_event
// JSON (load in about:tracing / Perfetto) or JSONL.

namespace vw::obs {

enum class EventPhase : char {
  kComplete = 'X',  ///< span with start + duration
  kInstant = 'i',   ///< point event
};

struct TraceEvent {
  std::uint64_t id = 0;  ///< monotone across the tracer's lifetime
  SimTime ts = 0;        ///< virtual start time
  SimTime dur = 0;       ///< span duration (0 for instants)
  EventPhase phase = EventPhase::kInstant;
  std::string name;
  std::string category;
  std::vector<std::pair<std::string, std::string>> args;
};

class EventTracer {
 public:
  using ClockFn = std::function<SimTime()>;
  using Args = std::vector<std::pair<std::string, std::string>>;

  /// RAII span: records a complete event when end()'d or destroyed. A
  /// default-constructed (or disabled-scope) Span is inert.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept;
    ~Span() { end(); }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Attach a key/value pair shown in the trace viewer.
    void arg(std::string key, std::string value);
    /// Record the event now (idempotent; the destructor calls it too).
    void end();

   private:
    friend class EventTracer;
    Span(EventTracer* tracer, std::string name, std::string category, SimTime start)
        : tracer_(tracer), name_(std::move(name)), category_(std::move(category)),
          start_(start) {}

    EventTracer* tracer_ = nullptr;
    std::string name_;
    std::string category_;
    SimTime start_ = 0;
    Args args_;
  };

  explicit EventTracer(std::size_t capacity = 16384, ClockFn clock = nullptr);

  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  /// Record a point event at the current virtual time.
  void instant(std::string name, std::string category, Args args = {}) VW_EXCLUDES(mu_);

  /// Record a finished span with explicit endpoints (for asynchronous work
  /// like migrations, where no stack frame covers the whole interval).
  void complete(std::string name, std::string category, SimTime start, SimTime end,
                Args args = {}) VW_EXCLUDES(mu_);

  /// Open a span covering the caller's scope.
  Span span(std::string name, std::string category);

  /// Events currently buffered, oldest first.
  std::vector<TraceEvent> events() const VW_EXCLUDES(mu_);

  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const VW_EXCLUDES(mu_);
  std::uint64_t dropped() const VW_EXCLUDES(mu_);

  SimTime now() const { return clock_ ? clock_() : 0; }

 private:
  void push(TraceEvent ev) VW_EXCLUDES(mu_);

  std::size_t capacity_;
  ClockFn clock_;
  mutable Mutex mu_;
  std::deque<TraceEvent> ring_ VW_GUARDED_BY(mu_);
  std::uint64_t next_id_ VW_GUARDED_BY(mu_) = 1;
  std::uint64_t recorded_ VW_GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ VW_GUARDED_BY(mu_) = 0;
};

}  // namespace vw::obs
