#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sim/simulator.hpp"
#include "vm/machine.hpp"

// Application workloads running inside the VMs. These generate the traffic
// the paper's experiments monitor and adapt to: all-to-all and ring patterns
// (adaptation studies), BSP neighbor exchange (Figure 4), and a NAS
// MultiGrid-like pattern (Figure 7's inferred topology).

namespace vw::vm::apps {

/// Demand matrix in bits/sec between VM indices.
using DemandMatrix = std::map<std::pair<std::size_t, std::size_t>, double>;

/// Uniform all-to-all demands among n VMs.
DemandMatrix all_to_all(std::size_t n, double rate_bps);

/// Ring: VM i sends to VM (i+1) mod n.
DemandMatrix ring(std::size_t n, double rate_bps);

/// A NAS-MultiGrid-like 4-VM pattern: strong nearest-neighbor exchange with
/// weaker second- and third-neighbor components from the coarser grid levels
/// (the asymmetric topology of the paper's Figure 7).
DemandMatrix multigrid4(double base_rate_bps);

/// Sends messages between VMs so each pair's average rate matches the
/// demand matrix; message size = rate * interval.
class MatrixTrafficApp {
 public:
  MatrixTrafficApp(sim::Simulator& sim, std::vector<VirtualMachine*> vms, DemandMatrix demands,
                   SimTime message_interval = millis(100));
  ~MatrixTrafficApp();

  MatrixTrafficApp(const MatrixTrafficApp&) = delete;
  MatrixTrafficApp& operator=(const MatrixTrafficApp&) = delete;

  void start();
  void stop();
  const DemandMatrix& demands() const { return demands_; }
  void set_demands(DemandMatrix demands) { demands_ = std::move(demands); }
  std::uint64_t messages_sent() const { return sent_; }

 private:
  void tick();

  sim::Simulator& sim_;
  std::vector<VirtualMachine*> vms_;
  DemandMatrix demands_;
  SimTime interval_;
  sim::EventHandle pending_;
  bool running_ = false;
  std::uint64_t sent_ = 0;
};

/// Bulk-synchronous neighbor exchange: each superstep every VM sends one
/// message to each neighbor, waits for all neighbors' messages, "computes"
/// for a fixed time, then starts the next superstep. The VMs must outlive
/// the app, which detaches from them when destroyed.
class BspNeighborApp {
 public:
  BspNeighborApp(sim::Simulator& sim, std::vector<VirtualMachine*> vms,
                 std::vector<std::vector<std::size_t>> neighbors, std::uint64_t message_bytes,
                 SimTime compute_time);
  ~BspNeighborApp();

  BspNeighborApp(const BspNeighborApp&) = delete;
  BspNeighborApp& operator=(const BspNeighborApp&) = delete;

  void start();
  void stop() { running_ = false; }
  std::uint64_t supersteps_completed() const { return min_step_completed_; }
  std::uint64_t messages_sent() const { return sent_; }

  /// Ring neighbor lists (bidirectional) for n VMs.
  static std::vector<std::vector<std::size_t>> ring_neighbors(std::size_t n);
  /// 2D grid (rows x cols) 4-neighborhood lists.
  static std::vector<std::vector<std::size_t>> grid_neighbors(std::size_t rows, std::size_t cols);

 private:
  struct PerVm {
    std::uint64_t step = 0;                          ///< current superstep
    std::map<std::uint64_t, std::size_t> received;   ///< step -> messages seen
    bool computing = false;
    sim::EventHandle compute_done;                   ///< pending begin_step
  };

  void begin_step(std::size_t vm_idx);
  void on_message(std::size_t vm_idx, std::uint64_t step);
  void maybe_advance(std::size_t vm_idx);

  sim::Simulator& sim_;
  std::vector<VirtualMachine*> vms_;
  std::vector<std::vector<std::size_t>> neighbors_;
  std::uint64_t message_bytes_;
  SimTime compute_time_;
  std::vector<PerVm> state_;
  std::map<vnet::MacAddress, std::size_t> index_by_mac_;
  bool running_ = false;
  std::uint64_t sent_ = 0;
  std::uint64_t min_step_completed_ = 0;
};

}  // namespace vw::vm::apps
