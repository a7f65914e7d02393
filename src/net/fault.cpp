#include "net/fault.hpp"

#include "util/check.hpp"

namespace vw::net {

void FaultPlan::schedule(SimTime at, NodeId a, NodeId b, bool down) {
  VW_REQUIRE(at >= sim_.now(), "FaultPlan: cannot schedule 'link ", a, "<->", b,
             down ? " DOWN" : " UP", "' in the past: at=", at, " now=", sim_.now());
  sim_.schedule_at(at, [this, a, b, down] { network_.set_link_down(a, b, down); });
}

void FaultPlan::link_down(SimTime at, NodeId a, NodeId b) {
  schedule(at, a, b, true);
}

void FaultPlan::link_up(SimTime at, NodeId a, NodeId b) {
  schedule(at, a, b, false);
}

void FaultPlan::link_outage(SimTime from, SimTime until, NodeId a, NodeId b) {
  VW_REQUIRE(until > from, "FaultPlan: outage must end after it starts: from=", from,
             " until=", until);
  link_down(from, a, b);
  link_up(until, a, b);
}

}  // namespace vw::net
