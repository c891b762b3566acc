// planetmarket: task-to-machine placement policies.
//
// The market's provisioning layer sits above a per-cluster scheduler
// ("these allocation limits are then mapped into the low-level scheduling
// algorithms used to actually assign jobs to units of physical hardware",
// §I). This module implements the classic online bin-packing policies; the
// fleet uses them to answer "does this job actually fit in that cluster?",
// which is what makes utilization ψ(r) a real, packing-constrained number
// rather than a bookkeeping fiction.
#pragma once

#include <string_view>
#include <vector>

#include "cluster/machine.h"

namespace pm::cluster {

/// Placement policy for choosing among machines that can fit a task.
enum class PlacementPolicy {
  kFirstFit,  // Lowest-index machine that fits.
  kBestFit,   // Machine left tightest (max dimension fill) after placing.
  kWorstFit,  // Machine left loosest after placing (load spreading).
};

std::string_view ToString(PlacementPolicy policy);

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

/// Places `count` tasks of `shape` one at a time using `policy`, mutating
/// `machines`. Returns where each task went. Placement is all-or-nothing
/// per *task* but not per job: callers wanting atomic job placement check
/// Complete() and call UndoPlacement on failure.
PlacementResult PlaceTasks(std::vector<Machine>& machines,
                           const TaskShape& shape, int count,
                           PlacementPolicy policy);

/// Reverts a placement previously returned by PlaceTasks with the same
/// shape. Removes tasks machine by machine in ascending order, so the
/// float sums in Machine::used() retrace the same operations.
void UndoPlacement(std::vector<Machine>& machines, const TaskShape& shape,
                   const PlacementResult& placement);

}  // namespace pm::cluster
