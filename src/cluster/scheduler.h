// planetmarket: task-to-machine placement.
//
// The market's provisioning layer sits above a per-cluster scheduler
// ("these allocation limits are then mapped into the low-level scheduling
// algorithms used to actually assign jobs to units of physical hardware",
// §I). This module implements online best-fit bin packing; the fleet uses
// it to answer "does this job actually fit in that cluster?", which is what
// makes utilization ψ(r) a real, packing-constrained number rather than a
// bookkeeping fiction.
#pragma once

#include <vector>

#include "cluster/machine.h"

namespace pm::cluster {

/// `tasks` tasks of one job placed on machine `machine`.
struct PlacementSlot {
  MachineIndex machine = 0;
  int tasks = 0;

  bool operator==(const PlacementSlot&) const = default;
};

/// Result of placing a multi-task job onto a machine set.
struct PlacementResult {
  /// Where the placed tasks went: only machines that received at least
  /// one task, ascending by machine index. A job sits on a handful of
  /// machines out of hundreds, so this stays small.
  std::vector<PlacementSlot> slots;

  /// Tasks that could not be placed anywhere.
  int tasks_failed = 0;

  bool Complete() const { return tasks_failed == 0; }

  int TotalPlaced() const;
};

/// Places `count` tasks of `shape` one at a time by best fit, mutating
/// `machines`: each task goes to the machine that fits it and is left
/// tightest (max dimension fill) after placing, ties to the lowest index.
/// One call costs O(M + count·log M) for M machines: a tournament tree
/// over the machines re-evaluates only the machine each task lands on.
/// Returns where each task went. Placement is all-or-nothing
/// per *task* but not per job: callers wanting atomic job placement check
/// Complete() and call UndoPlacement on failure.
PlacementResult PlaceTasks(std::vector<Machine>& machines,
                           const TaskShape& shape, int count);

/// Reverts a placement previously returned by PlaceTasks with the same
/// shape. Removes tasks machine by machine in ascending order, so the
/// float sums in Machine::used() retrace the same operations.
void UndoPlacement(std::vector<Machine>& machines, const TaskShape& shape,
                   const PlacementResult& placement);

}  // namespace pm::cluster
