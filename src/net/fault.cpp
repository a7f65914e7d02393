#include "net/fault.hpp"

#include <utility>

#include "util/check.hpp"

namespace vw::net {

void FaultPlan::schedule(SimTime at, std::string label, NodeId a, NodeId b, bool down) {
  VW_REQUIRE(at >= sim_.now(), "FaultPlan: cannot schedule '", label,
             "' in the past: at=", at, " now=", sim_.now());
  sim_.schedule_at(at, [this, label = std::move(label), a, b, down] {
    if (logger_) logger_->warn("fault", logcat("t=", to_seconds(sim_.now()), "s ", label));
    network_.set_link_down(a, b, down);
  });
}

void FaultPlan::link_down(SimTime at, NodeId a, NodeId b) {
  schedule(at, logcat("link ", a, "<->", b, " DOWN"), a, b, true);
}

void FaultPlan::link_up(SimTime at, NodeId a, NodeId b) {
  schedule(at, logcat("link ", a, "<->", b, " UP"), a, b, false);
}

void FaultPlan::link_outage(SimTime from, SimTime until, NodeId a, NodeId b) {
  VW_REQUIRE(until > from, "FaultPlan: outage must end after it starts: from=", from,
             " until=", until);
  link_down(from, a, b);
  link_up(until, a, b);
}

}  // namespace vw::net
