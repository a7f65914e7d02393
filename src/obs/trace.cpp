#include "obs/trace.hpp"

#include "util/check.hpp"

namespace vw::obs {

EventTracer::Span& EventTracer::Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    end();
    tracer_ = other.tracer_;
    name_ = std::move(other.name_);
    category_ = std::move(other.category_);
    start_ = other.start_;
    args_ = std::move(other.args_);
    other.tracer_ = nullptr;
  }
  return *this;
}

void EventTracer::Span::arg(std::string key, std::string value) {
  if (tracer_ == nullptr) return;
  args_.emplace_back(std::move(key), std::move(value));
}

void EventTracer::Span::end() {
  if (tracer_ == nullptr) return;
  EventTracer* tracer = tracer_;
  tracer_ = nullptr;
  tracer->complete(std::move(name_), std::move(category_), start_, tracer->now(),
                   std::move(args_));
}

EventTracer::EventTracer(std::size_t capacity, ClockFn clock)
    : capacity_(capacity), clock_(std::move(clock)) {
  VW_REQUIRE(capacity_ > 0, "EventTracer: capacity must be >= 1");
}

void EventTracer::push(TraceEvent ev) {
  MutexLock lock(mu_);
  ev.id = next_id_++;
  ++recorded_;
  ring_.push_back(std::move(ev));
  while (ring_.size() > capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
}

void EventTracer::instant(std::string name, std::string category, Args args) {
  TraceEvent ev;
  ev.ts = now();
  ev.phase = EventPhase::kInstant;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.args = std::move(args);
  push(std::move(ev));
}

void EventTracer::complete(std::string name, std::string category, SimTime start, SimTime end,
                           Args args) {
  VW_REQUIRE(end >= start, "EventTracer::complete: span '", name, "' ends (", end,
             ") before it starts (", start, ")");
  TraceEvent ev;
  ev.ts = start;
  ev.dur = end - start;
  ev.phase = EventPhase::kComplete;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.args = std::move(args);
  push(std::move(ev));
}

EventTracer::Span EventTracer::span(std::string name, std::string category) {
  return Span(this, std::move(name), std::move(category), now());
}

std::vector<TraceEvent> EventTracer::events() const {
  MutexLock lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t EventTracer::recorded() const {
  MutexLock lock(mu_);
  return recorded_;
}

std::uint64_t EventTracer::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

}  // namespace vw::obs
