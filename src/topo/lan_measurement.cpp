#include "topo/lan_measurement.hpp"

#include <utility>

namespace vw::topo {

LanMeasurement::LanMeasurement(double cross_bps, const wren::WrenParams& params)
    : tb(make_lan_testbed(sim)),
      stack(*tb.network),
      analyzer(*tb.network, tb.sender, params),
      cross(stack, tb.cross_source, tb.receiver, 7000, cross_bps) {
  cross.start();
}

transport::MessageSource& LanMeasurement::send(std::vector<transport::MessagePhase> phases,
                                               std::uint32_t repeat, Rng rng) {
  app = std::make_unique<transport::MessageSource>(stack, tb.sender, tb.receiver, 9000,
                                                   std::move(phases), repeat, rng);
  app->start();
  return *app;
}

}  // namespace vw::topo
