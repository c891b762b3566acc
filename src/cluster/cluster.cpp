#include "cluster/cluster.h"

#include <algorithm>

#include "common/check.h"

namespace pm::cluster {

Cluster::Cluster(std::string name, std::vector<Machine> machines)
    : name_(std::move(name)), machines_(std::move(machines)) {
  PM_CHECK_MSG(!name_.empty(), "cluster needs a name");
  for (const Machine& m : machines_) capacity_ += m.capacity();
  RecountUsed();
}

void Cluster::RecountUsed() {
  used_ = TaskShape{};
  for (const Machine& m : machines_) used_ += m.used();
}

Cluster Cluster::Homogeneous(std::string name, int num_machines,
                             const TaskShape& machine_capacity) {
  PM_CHECK_MSG(num_machines > 0, "cluster needs at least one machine");
  std::vector<Machine> machines;
  machines.reserve(static_cast<std::size_t>(num_machines));
  for (int i = 0; i < num_machines; ++i) {
    machines.emplace_back(machine_capacity);
  }
  return Cluster(std::move(name), std::move(machines));
}

bool Cluster::AddJob(const Job& job) {
  PM_CHECK_MSG(slot_of_.count(job.id) == 0,
               "job " << job.id << " already in cluster " << name_);
  PlacementResult placement = PlaceTasks(machines_, job.shape, job.tasks);
  if (!placement.Complete()) {
    UndoPlacement(machines_, job.shape, placement);
    RecountUsed();
    return false;
  }
  slot_of_.emplace(job.id, jobs_.size());
  jobs_.emplace_back(PlacedJob{job, std::move(placement)});
  RecountUsed();
  return true;
}

std::optional<Job> Cluster::RemoveJob(JobId id) {
  auto it = slot_of_.find(id);
  if (it == slot_of_.end()) return std::nullopt;
  std::optional<PlacedJob>& slot = jobs_[it->second];
  UndoPlacement(machines_, slot->job.shape, slot->placement);
  Job job = std::move(slot->job);
  slot.reset();
  slot_of_.erase(it);
  if (2 * slot_of_.size() < jobs_.size()) {
    std::erase_if(jobs_, [](const std::optional<PlacedJob>& p) {
      return !p.has_value();
    });
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      slot_of_[jobs_[i]->job.id] = i;
    }
  }
  RecountUsed();
  return job;
}

void Cluster::RenumberJob(JobId from, JobId to) {
  if (from == to) return;
  auto it = slot_of_.find(from);
  PM_CHECK_MSG(it != slot_of_.end(),
               "cannot renumber unknown job " << from << " in " << name_);
  PM_CHECK_MSG(slot_of_.count(to) == 0,
               "job id " << to << " already taken in " << name_);
  const std::size_t slot = it->second;
  slot_of_.erase(it);
  slot_of_.emplace(to, slot);
  jobs_[slot]->job.id = to;
}

std::vector<JobId> Cluster::JobIds() const {
  std::vector<JobId> ids;
  ids.reserve(slot_of_.size());
  for (const Job& job : Jobs()) ids.push_back(job.id);
  return ids;
}

const Job* Cluster::FindJob(JobId id) const {
  auto it = slot_of_.find(id);
  return it == slot_of_.end() ? nullptr : &jobs_[it->second]->job;
}

double Cluster::Utilization(ResourceKind kind) const {
  const double cap = Capacity(kind);
  if (cap <= 0.0) return 0.0;
  return Used(kind) / cap;
}

double Cluster::MaxUtilization() const {
  double u = 0.0;
  for (ResourceKind kind : kAllResourceKinds) {
    u = std::max(u, Utilization(kind));
  }
  return u;
}

double Cluster::Free(ResourceKind kind) const {
  return Capacity(kind) - Used(kind);
}

std::vector<Cluster::PlacedJobRecord> Cluster::ExportJobs() const {
  std::vector<PlacedJobRecord> records;
  records.reserve(slot_of_.size());
  for (const std::optional<PlacedJob>& placed : jobs_) {
    if (!placed) continue;
    records.push_back(PlacedJobRecord{placed->job, placed->placement});
  }
  return records;
}

void Cluster::RestoreJobs(std::vector<PlacedJobRecord> records) {
  PM_CHECK_MSG(slot_of_.empty(),
               "RestoreJobs into non-empty cluster " << name_);
  jobs_.clear();
  for (PlacedJobRecord& record : records) {
    const JobId id = record.job.id;
    const bool fresh = slot_of_.emplace(id, jobs_.size()).second;
    PM_CHECK_MSG(fresh, "duplicate job " << id << " in restore of " << name_);
    jobs_.emplace_back(
        PlacedJob{std::move(record.job), std::move(record.placement)});
  }
}

}  // namespace pm::cluster
