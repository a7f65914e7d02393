#pragma once

#include <functional>
#include <map>
#include <optional>

#include "net/network.hpp"
#include "obs/scope.hpp"
#include "sim/simulator.hpp"
#include "vm/machine.hpp"

// VM migration: pause, transfer the memory image between hosts (modelled as
// a delay derived from the image size and the physical bottleneck bandwidth
// of the routed path, plus a fixed pause/resume overhead), then re-attach at
// the destination and update the Proxy's MAC registry.
//
// Failure semantics: a migration is not a promise. While the transfer is in
// flight the engine polls the routed source->target path every
// kPathCheckPeriod; if the path goes down (or is down when the transfer
// would land), the migration FAILS: the VM re-attaches at its source host
// and the completion callback fires with MigrationStatus::kFailed so the
// adaptation layer can re-plan around the dead pair. Migrations can also be
// aborted explicitly.

namespace vw::vm {

enum class MigrationStatus {
  kCompleted,   ///< VM attached at the requested target
  kSuperseded,  ///< a re-target replaced this request (VM still in flight)
  kFailed,      ///< path died; VM re-attached at source
  kAborted,     ///< abort() cancelled it; VM re-attached at source
};

inline constexpr SimTime kMigrationOverhead = millis(500);  ///< pause/resume/bookkeeping cost
inline constexpr double kMigrationEfficiency = 0.7;  ///< fraction of path bottleneck usable
inline constexpr double kMigrationFallbackBps = 100e6;  ///< used when the path is unknown
inline constexpr SimTime kPathCheckPeriod = millis(250);  ///< in-flight path liveness poll

class MigrationEngine {
 public:
  using DoneFn = std::function<void(VirtualMachine&, MigrationStatus)>;

  MigrationEngine(sim::Simulator& sim, net::Network& network);

  /// Start migrating `machine` to `target_host`. The VM detaches immediately
  /// (frames to it drop while in flight) and re-attaches when the transfer
  /// completes. No-op when already there. Re-targeting a VM that is already
  /// mid-migration supersedes the previous request: its callback fires with
  /// kSuperseded and the remaining duration is re-estimated against the new
  /// target.
  void migrate(VirtualMachine& machine, net::NodeId target_host, DoneFn on_done = nullptr);

  /// Cancel an in-flight migration: the VM re-attaches at its source host
  /// and the callback fires with kAborted. Returns false when `machine` was
  /// not migrating.
  bool abort(VirtualMachine& machine);

  bool in_flight(const VirtualMachine& machine) const {
    return inflight_.contains(&machine);
  }

  /// Predicted migration duration for planning.
  SimTime estimate_duration(const VirtualMachine& machine, net::NodeId from,
                            net::NodeId to) const;

  std::uint64_t migrations_started() const { return started_; }
  std::uint64_t migrations_completed() const { return completed_; }
  std::uint64_t migrations_failed() const { return failed_; }
  std::uint64_t migrations_superseded() const { return superseded_; }
  std::uint64_t migrations_aborted() const { return aborted_; }

  /// Attach telemetry (vm.migrations.* counters, a duration histogram and a
  /// complete trace span per migration).
  void set_obs(const obs::Scope& scope);

 private:
  struct Pending {
    net::NodeId target;
    DoneFn on_done;
    SimTime started_at = 0;  ///< for the duration histogram / trace span
    std::optional<net::NodeId> source;  ///< absent when the VM started detached
    sim::EventHandle completion;
    sim::EventHandle check;
  };

  void schedule_completion(VirtualMachine& machine, Pending& pending, SimTime in);
  void arm_path_check(VirtualMachine& machine, Pending& pending);
  void finish(VirtualMachine& machine, MigrationStatus status);

  sim::Simulator& sim_;
  net::Network& network_;
  std::map<const VirtualMachine*, Pending> inflight_;
  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t superseded_ = 0;
  std::uint64_t aborted_ = 0;
  obs::Scope obs_;
  obs::Counter* c_started_ = nullptr;
  obs::Counter* c_completed_ = nullptr;
  obs::Counter* c_failed_ = nullptr;
  obs::Counter* c_superseded_ = nullptr;
  obs::Counter* c_aborted_ = nullptr;
  obs::Histogram* h_duration_s_ = nullptr;
};

}  // namespace vw::vm
