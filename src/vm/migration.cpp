#include "vm/migration.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.hpp"

namespace vw::vm {

MigrationEngine::MigrationEngine(sim::Simulator& sim, net::Network& network)
    : sim_(sim), network_(network) {}

void MigrationEngine::set_obs(const obs::Scope& scope) {
  obs_ = scope;
  c_started_ = scope.counter("vm.migrations.started");
  c_completed_ = scope.counter("vm.migrations.completed");
  c_failed_ = scope.counter("vm.migrations.failed");
  c_superseded_ = scope.counter("vm.migrations.superseded");
  c_aborted_ = scope.counter("vm.migrations.aborted");
  h_duration_s_ = scope.histogram("vm.migration.duration_s");
}

SimTime MigrationEngine::estimate_duration(const VirtualMachine& machine, net::NodeId from,
                                           net::NodeId to) const {
  double bps = network_.path_bottleneck_bps(from, to);
  if (bps <= 0 || !std::isfinite(bps)) bps = kMigrationFallbackBps;
  bps *= kMigrationEfficiency;
  return kMigrationOverhead +
         seconds(static_cast<double>(machine.memory_bytes()) * 8.0 / bps);
}

void MigrationEngine::schedule_completion(VirtualMachine& machine, Pending& pending,
                                          SimTime in) {
  sim_.cancel(pending.completion);
  pending.completion = sim_.schedule_in(in, [this, &machine] {
    auto it = inflight_.find(&machine);
    if (it == inflight_.end()) return;
    Pending& p = it->second;
    // A transfer cannot land over a dead path, however long it queued.
    if (p.source.has_value() && !network_.path_up(*p.source, p.target)) {
      finish(machine, MigrationStatus::kFailed);
    } else {
      finish(machine, MigrationStatus::kCompleted);
    }
  });
}

void MigrationEngine::arm_path_check(VirtualMachine& machine, Pending& pending) {
  pending.check = sim_.schedule_in(kPathCheckPeriod, [this, &machine] {
    auto it = inflight_.find(&machine);
    if (it == inflight_.end()) return;
    Pending& p = it->second;
    if (p.source.has_value() && !network_.path_up(*p.source, p.target)) {
      finish(machine, MigrationStatus::kFailed);
      return;
    }
    arm_path_check(machine, p);
  });
}

void MigrationEngine::migrate(VirtualMachine& machine, net::NodeId target_host, DoneFn on_done) {
  if (auto it = inflight_.find(&machine); it != inflight_.end()) {
    // Already mid-migration: the new request supersedes the old one. Tell
    // the old requester (its completion will never come) and re-estimate
    // the remaining transfer against the new destination.
    Pending& pending = it->second;
    DoneFn old_done = std::move(pending.on_done);
    pending.on_done = std::move(on_done);
    pending.target = target_host;
    ++superseded_;
    obs::add(c_superseded_);
    const SimTime elapsed = sim_.now() - pending.started_at;
    SimTime remaining = kMigrationOverhead;
    if (pending.source.has_value()) {
      const SimTime new_total = estimate_duration(machine, *pending.source, target_host);
      remaining = std::max<SimTime>(0, new_total - elapsed);
    }
    schedule_completion(machine, pending, remaining);
    if (old_done) old_done(machine, MigrationStatus::kSuperseded);
    return;
  }
  if (machine.attached() && machine.host() == target_host) {
    if (on_done) on_done(machine, MigrationStatus::kCompleted);
    return;
  }
  Pending pending;
  pending.target = target_host;
  pending.on_done = std::move(on_done);
  pending.started_at = sim_.now();
  SimTime duration = kMigrationOverhead;
  if (machine.attached()) {
    pending.source = machine.host();
    duration = estimate_duration(machine, machine.host(), target_host);
    machine.detach();
  }
  ++started_;
  obs::add(c_started_);
  Pending& stored = inflight_.emplace(&machine, std::move(pending)).first->second;
  schedule_completion(machine, stored, duration);
  if (stored.source.has_value()) arm_path_check(machine, stored);
}

bool MigrationEngine::abort(VirtualMachine& machine) {
  if (!inflight_.contains(&machine)) return false;
  finish(machine, MigrationStatus::kAborted);
  return true;
}

void MigrationEngine::finish(VirtualMachine& machine, MigrationStatus status) {
  auto node = inflight_.extract(&machine);
  VW_ASSERT(!node.empty(), "MigrationEngine::finish: machine not in flight");
  Pending pending = std::move(node.mapped());
  sim_.cancel(pending.completion);
  sim_.cancel(pending.check);
  const SimTime finished_at = sim_.now();
  switch (status) {
    case MigrationStatus::kCompleted:
      machine.attach(pending.target);
      ++completed_;
      obs::add(c_completed_);
      obs::record(h_duration_s_, to_seconds(finished_at - pending.started_at));
      if (obs_.tracer != nullptr) {
        obs_.tracer->complete("vm.migration", "vm", pending.started_at, finished_at,
                              {{"target_host", std::to_string(pending.target)}});
      }
      break;
    case MigrationStatus::kFailed:
      // Roll back: the image never fully left the source, so the VM resumes
      // there. No migration may leave a VM detached.
      VW_ASSERT(pending.source.has_value(),
                "MigrationEngine: failure without a source to roll back to");
      machine.attach(*pending.source);
      ++failed_;
      obs::add(c_failed_);
      obs_.instant("vm.migration.failed", "vm",
                   {{"source_host", std::to_string(*pending.source)},
                    {"target_host", std::to_string(pending.target)}});
      break;
    case MigrationStatus::kAborted:
      machine.attach(pending.source.has_value() ? *pending.source : pending.target);
      ++aborted_;
      obs::add(c_aborted_);
      break;
    case MigrationStatus::kSuperseded:
      VW_UNREACHABLE("supersession is handled in migrate(), not finish()");
  }
  if (pending.on_done) pending.on_done(machine, status);
}

}  // namespace vw::vm
