#include "vm/apps.hpp"

#include <algorithm>
#include <stdexcept>

namespace vw::vm::apps {

DemandMatrix all_to_all(std::size_t n, double rate_bps) {
  DemandMatrix m;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) m[{i, j}] = rate_bps;
    }
  }
  return m;
}

DemandMatrix ring(std::size_t n, double rate_bps) {
  DemandMatrix m;
  for (std::size_t i = 0; i < n; ++i) m[{i, (i + 1) % n}] = rate_bps;
  return m;
}

DemandMatrix multigrid4(double base_rate_bps) {
  // The fine-grid exchange dominates (nearest neighbors in the processor
  // chain); each coarsening level halves the traffic and reaches further,
  // yielding the asymmetric nearly-complete 4-VM topology of Figure 7.
  DemandMatrix m;
  const double fine = base_rate_bps;
  const double mid = base_rate_bps / 2;
  const double coarse = base_rate_bps / 4;
  for (std::size_t i = 0; i + 1 < 4; ++i) {
    m[{i, i + 1}] = fine;
    m[{i + 1, i}] = 0.9 * fine;  // slight asymmetry: restriction vs prolongation
  }
  m[{0, 2}] = mid;
  m[{2, 0}] = 0.9 * mid;
  m[{1, 3}] = mid;
  m[{3, 1}] = 0.9 * mid;
  m[{0, 3}] = coarse;
  m[{3, 0}] = 0.9 * coarse;
  return m;
}

MatrixTrafficApp::MatrixTrafficApp(sim::Simulator& sim, std::vector<VirtualMachine*> vms,
                                   DemandMatrix demands, SimTime message_interval)
    : sim_(sim), vms_(std::move(vms)), demands_(std::move(demands)), interval_(message_interval) {
  for (const auto& [pair, rate] : demands_) {
    if (pair.first >= vms_.size() || pair.second >= vms_.size()) {
      throw std::out_of_range("MatrixTrafficApp: demand references missing VM");
    }
  }
}

MatrixTrafficApp::~MatrixTrafficApp() { stop(); }

void MatrixTrafficApp::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void MatrixTrafficApp::stop() {
  running_ = false;
  if (pending_.valid()) {
    sim_.cancel(pending_);
    pending_ = sim::EventHandle{};
  }
}

void MatrixTrafficApp::tick() {
  if (!running_) return;
  const double interval_s = to_seconds(interval_);
  for (const auto& [pair, rate] : demands_) {
    const auto bytes = static_cast<std::uint64_t>(rate * interval_s / 8.0);
    if (bytes == 0) continue;
    vms_[pair.first]->send_message(vms_[pair.second]->mac(), bytes);
    ++sent_;
  }
  pending_ = sim_.schedule_in(interval_, [this] { tick(); });
}

// --- BspNeighborApp ---------------------------------------------------------

BspNeighborApp::BspNeighborApp(sim::Simulator& sim, std::vector<VirtualMachine*> vms,
                               std::vector<std::vector<std::size_t>> neighbors,
                               std::uint64_t message_bytes, SimTime compute_time)
    : sim_(sim),
      vms_(std::move(vms)),
      neighbors_(std::move(neighbors)),
      message_bytes_(message_bytes),
      compute_time_(compute_time),
      state_(vms_.size()) {
  if (neighbors_.size() != vms_.size()) {
    throw std::invalid_argument("BspNeighborApp: neighbor list size mismatch");
  }
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    index_by_mac_[vms_[i]->mac()] = i;
    vms_[i]->set_on_message([this, i](vnet::MacAddress, std::uint64_t, const std::any& tag) {
      if (const auto* step = std::any_cast<std::uint64_t>(&tag)) on_message(i, *step);
    });
  }
}

BspNeighborApp::~BspNeighborApp() {
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    sim_.cancel(state_[i].compute_done);
    vms_[i]->set_on_message(nullptr);
  }
}

std::vector<std::vector<std::size_t>> BspNeighborApp::ring_neighbors(std::size_t n) {
  std::vector<std::vector<std::size_t>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].push_back((i + 1) % n);
    if (n > 2) out[i].push_back((i + n - 1) % n);
  }
  return out;
}

std::vector<std::vector<std::size_t>> BspNeighborApp::grid_neighbors(std::size_t rows,
                                                                     std::size_t cols) {
  std::vector<std::vector<std::size_t>> out(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t i = r * cols + c;
      if (r > 0) out[i].push_back(i - cols);
      if (r + 1 < rows) out[i].push_back(i + cols);
      if (c > 0) out[i].push_back(i - 1);
      if (c + 1 < cols) out[i].push_back(i + 1);
    }
  }
  return out;
}

void BspNeighborApp::start() {
  running_ = true;
  for (std::size_t i = 0; i < vms_.size(); ++i) begin_step(i);
}

void BspNeighborApp::begin_step(std::size_t vm_idx) {
  if (!running_) return;
  PerVm& st = state_[vm_idx];
  st.computing = false;
  for (std::size_t nb : neighbors_[vm_idx]) {
    vms_[vm_idx]->send_message(vms_[nb]->mac(), message_bytes_, std::any(st.step));
    ++sent_;
  }
  maybe_advance(vm_idx);  // degenerate case: no neighbors
}

void BspNeighborApp::on_message(std::size_t vm_idx, std::uint64_t step) {
  PerVm& st = state_[vm_idx];
  ++st.received[step];
  maybe_advance(vm_idx);
}

void BspNeighborApp::maybe_advance(std::size_t vm_idx) {
  if (!running_) return;
  PerVm& st = state_[vm_idx];
  if (st.computing) return;
  const std::size_t needed = neighbors_[vm_idx].size();
  auto it = st.received.find(st.step);
  const std::size_t have = (it == st.received.end()) ? 0 : it->second;
  if (have < needed) return;

  // Superstep complete: "compute", then start the next one.
  st.received.erase(st.step);
  ++st.step;
  st.computing = true;

  std::uint64_t global_min = state_[0].step;
  for (const PerVm& s : state_) global_min = std::min(global_min, s.step);
  min_step_completed_ = global_min;

  st.compute_done = sim_.schedule_in(compute_time_, [this, vm_idx] { begin_step(vm_idx); });
}

}  // namespace vw::vm::apps
