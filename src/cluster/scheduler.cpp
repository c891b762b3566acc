#include "cluster/scheduler.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace pm::cluster {

int PlacementResult::TotalPlaced() const {
  return std::accumulate(
      slots.begin(), slots.end(), 0,
      [](int sum, const PlacementSlot& slot) { return sum + slot.tasks; });
}

namespace {

int PickMachine(const std::vector<Machine>& machines, const TaskShape& shape) {
  int best = -1;
  double best_fill = 0.0;
  for (std::size_t i = 0; i < machines.size(); ++i) {
    if (!machines[i].CanFit(shape)) continue;
    const double fill = machines[i].FillAfter(shape);
    if (best < 0 || fill > best_fill) {
      best = static_cast<int>(i);
      best_fill = fill;
    }
  }
  return best;
}

}  // namespace

PlacementResult PlaceTasks(std::vector<Machine>& machines,
                           const TaskShape& shape, int count) {
  PM_CHECK_MSG(count >= 0, "negative task count " << count);
  PlacementResult result;
  for (int t = 0; t < count; ++t) {
    const int pick = PickMachine(machines, shape);
    if (pick < 0) {
      result.tasks_failed = count - t;
      break;
    }
    machines[static_cast<std::size_t>(pick)].Place(shape);
    const auto machine = static_cast<MachineIndex>(pick);
    auto slot = std::lower_bound(
        result.slots.begin(), result.slots.end(), machine,
        [](const PlacementSlot& s, MachineIndex m) { return s.machine < m; });
    if (slot == result.slots.end() || slot->machine != machine) {
      slot = result.slots.insert(slot, PlacementSlot{machine, 0});
    }
    ++slot->tasks;
  }
  return result;
}

void UndoPlacement(std::vector<Machine>& machines, const TaskShape& shape,
                   const PlacementResult& placement) {
  for (const PlacementSlot& slot : placement.slots) {
    PM_CHECK(slot.machine < machines.size());
    for (int t = 0; t < slot.tasks; ++t) machines[slot.machine].Remove(shape);
  }
}

}  // namespace pm::cluster
