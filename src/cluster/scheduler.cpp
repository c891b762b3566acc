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

// A max tournament tree over one PlaceTasks call's machines. The task
// shape is fixed for the call, so each leaf caches its machine's
// FillAfter, or is empty when the machine cannot fit the shape; an inner
// node holds the better of its children. The root is then the best-fit
// pick, and a placement only re-evaluates its own leaf and the path above.
class BestFitTree {
 public:
  BestFitTree(const std::vector<Machine>& machines, const TaskShape& shape)
      : machines_(machines), shape_(shape) {
    while (leaves_ < machines.size()) leaves_ *= 2;
    nodes_.resize(2 * leaves_);
    for (std::size_t i = 0; i < machines.size(); ++i) {
      nodes_[leaves_ + i] = Evaluate(i);
    }
    for (std::size_t n = leaves_ - 1; n >= 1; --n) Combine(n);
  }

  /// The machine that fits the shape and is left fullest, ties to the
  /// lowest index; -1 when no machine fits.
  int Best() const { return nodes_[1].machine; }

  /// Re-evaluates machine `i` after its usage changed.
  void Update(std::size_t i) {
    std::size_t n = leaves_ + i;
    nodes_[n] = Evaluate(i);
    for (n /= 2; n >= 1; n /= 2) Combine(n);
  }

 private:
  struct Node {
    double fill = 0.0;
    int machine = -1;  // -1: no machine below fits.
  };

  Node Evaluate(std::size_t i) const {
    const Machine& m = machines_[i];
    if (!m.CanFit(shape_)) return Node{};
    return Node{m.FillAfter(shape_), static_cast<int>(i)};
  }

  // The left child covers lower machine indices, so it keeps the node
  // unless the right child is strictly fuller: the lowest-index tie rule.
  void Combine(std::size_t n) {
    const Node& left = nodes_[2 * n];
    const Node& right = nodes_[2 * n + 1];
    const bool take_right =
        right.machine >= 0 && (left.machine < 0 || right.fill > left.fill);
    nodes_[n] = take_right ? right : left;
  }

  const std::vector<Machine>& machines_;
  const TaskShape& shape_;
  std::size_t leaves_ = 1;
  // Heap order from index 1; machine i's leaf is nodes_[leaves_ + i].
  std::vector<Node> nodes_;
};

}  // namespace

PlacementResult PlaceTasks(std::vector<Machine>& machines,
                           const TaskShape& shape, int count) {
  PM_CHECK_MSG(count >= 0, "negative task count " << count);
  PlacementResult result;
  if (count == 0) return result;
  BestFitTree tree(machines, shape);
  for (int t = 0; t < count; ++t) {
    const int pick = tree.Best();
    if (pick < 0) {
      result.tasks_failed = count - t;
      break;
    }
    const auto machine = static_cast<MachineIndex>(pick);
    machines[machine].Place(shape);
    tree.Update(machine);
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
