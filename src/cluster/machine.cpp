#include "cluster/machine.h"

#include <algorithm>

#include "common/check.h"

namespace pm::cluster {

Machine::Machine(TaskShape capacity) : capacity_(capacity) {
  PM_CHECK_MSG(capacity.cpu >= 0 && capacity.ram_gb >= 0 &&
                   capacity.disk_tb >= 0,
               "machine capacity must be non-negative");
}

void Machine::Place(const TaskShape& shape) {
  PM_CHECK_MSG(CanFit(shape), "Place without CanFit");
  used_ += shape;
  // Clamp accumulated float error so used never exceeds capacity.
  used_.cpu = std::min(used_.cpu, capacity_.cpu);
  used_.ram_gb = std::min(used_.ram_gb, capacity_.ram_gb);
  used_.disk_tb = std::min(used_.disk_tb, capacity_.disk_tb);
}

void Machine::Remove(const TaskShape& shape) {
  used_ -= shape;
  PM_CHECK_MSG(used_.cpu >= -kFitEps * (capacity_.cpu + 1.0) &&
                   used_.ram_gb >= -kFitEps * (capacity_.ram_gb + 1.0) &&
                   used_.disk_tb >= -kFitEps * (capacity_.disk_tb + 1.0),
               "Remove of a task that was never placed");
  used_.cpu = std::max(used_.cpu, 0.0);
  used_.ram_gb = std::max(used_.ram_gb, 0.0);
  used_.disk_tb = std::max(used_.disk_tb, 0.0);
}

double Machine::Utilization(ResourceKind kind) const {
  const double cap = capacity_.Of(kind);
  if (cap <= 0.0) return 0.0;
  return used_.Of(kind) / cap;
}

}  // namespace pm::cluster
