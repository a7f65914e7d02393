#include "vttif/local.hpp"

namespace vw::vttif {

LocalVttif::LocalVttif(sim::Simulator& sim, vnet::VnetDaemon& daemon, PushFn push)
    : daemon_(daemon), push_(std::move(push)), task_(sim, kLocalPeriod, [this] { push_update(); }) {
  daemon_.set_frame_observer([this](const vnet::EthernetFrame& frame) {
    // Accumulate bits so the aggregated sliding-window matrix reads in
    // bits/sec, matching the demand units VADAPT consumes.
    pending_.add(frame.src_mac, frame.dst_mac, 8.0 * static_cast<double>(frame.wire_bytes()));
  });
}

void LocalVttif::push_update() {
  if (pending_.empty()) return;
  ++updates_;
  obs::add(c_pushes_);
  if (push_) push_(daemon_.host(), pending_);
  pending_.clear();
}

}  // namespace vw::vttif
