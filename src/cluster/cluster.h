// planetmarket: a cluster of machines hosting jobs.
//
// Clusters are the paper's location axis of the pool space: every cluster
// contributes one pool per resource kind ("CPUs in cluster 1"). A cluster
// owns its machines and its placed jobs, and reports the utilization
// metric ψ(r) that drives congestion-weighted reserve pricing (§IV).
#pragma once

#include <optional>
#include <ranges>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/scheduler.h"

namespace pm::cluster {

/// A named cluster: machines + job placements.
class Cluster {
 public:
  Cluster(std::string name, std::vector<Machine> machines);

  /// Builds a homogeneous cluster of `num_machines` identical machines.
  static Cluster Homogeneous(std::string name, int num_machines,
                             const TaskShape& machine_capacity);

  const std::string& name() const { return name_; }

  /// Relabels the cluster. Only safe while the cluster is detached from
  /// any Fleet (names key a fleet's pool registry); the federation's
  /// rebalancer uses it to qualify migrated clusters ("r03@region-1").
  void SetName(std::string name) { name_ = std::move(name); }
  const std::vector<Machine>& machines() const { return machines_; }
  std::size_t NumMachines() const { return machines_.size(); }

  /// Tries to place every task of `job`. Atomic: on failure nothing
  /// changes and false is returned.
  bool AddJob(const Job& job);

  /// Removes a job and frees its resources. Returns the job if present.
  std::optional<Job> RemoveJob(JobId id);

  /// Re-keys a placed job without touching its placement — the migration
  /// path uses it to move adopted jobs into the receiving market's job-id
  /// space (job ids are only unique per market). `to` must be free.
  void RenumberJob(JobId from, JobId to);

  /// Whether the given job currently runs here.
  bool HasJob(JobId id) const { return slot_of_.count(id) > 0; }

  /// Jobs currently placed, in insertion order.
  std::vector<JobId> JobIds() const;

  /// The placed jobs themselves, in insertion order: a view that is valid
  /// until the cluster's jobs next change.
  auto Jobs() const {
    return jobs_ | std::views::filter([](const std::optional<PlacedJob>& p) {
             return p.has_value();
           }) |
           std::views::transform(
               [](const std::optional<PlacedJob>& p) -> const Job& {
                 return p->job;
               });
  }

  const Job* FindJob(JobId id) const;

  /// Total capacity across machines for a resource kind.
  double Capacity(ResourceKind kind) const { return capacity_.Of(kind); }

  /// Total usage across machines for a resource kind.
  double Used(ResourceKind kind) const { return used_.Of(kind); }

  /// ψ for one dimension: Used/Capacity in [0, 1] (0 when no capacity).
  double Utilization(ResourceKind kind) const;

  /// Max utilization across dimensions — the binding constraint.
  double MaxUtilization() const;

  /// Headroom: capacity − used per dimension.
  double Free(ResourceKind kind) const;

  /// One placed job with its machine assignment, for checkpointing.
  struct PlacedJobRecord {
    Job job;
    PlacementResult placement;
  };

  /// Every placed job with its placement, in insertion order.
  std::vector<PlacedJobRecord> ExportJobs() const;

  /// Checkpoint restore: installs job records (in the order ExportJobs
  /// returned them) without re-running the bin-packer or touching machine
  /// usage — the machines are restored separately via RestoreUsed, so the
  /// pair round-trips float accumulation bit-exactly. The cluster must
  /// hold no jobs yet.
  void RestoreJobs(std::vector<PlacedJobRecord> records);

 private:
  struct PlacedJob {
    Job job;
    PlacementResult placement;
  };

  /// Re-sums used_ over the machines, in machine order, after any change
  /// to machine usage.
  void RecountUsed();

  std::string name_;
  std::vector<Machine> machines_;
  // Per-kind sums over machines_, in machine order: capacity_ is fixed at
  // construction, used_ is re-summed whenever a placement changes.
  TaskShape capacity_;
  TaskShape used_;
  // Placed jobs in insertion order. A removed job leaves an empty slot
  // behind, so no removal shifts the others; the slots are compacted
  // once the empty ones outnumber the placed. slot_of_ indexes jobs_.
  std::vector<std::optional<PlacedJob>> jobs_;
  std::unordered_map<JobId, std::size_t> slot_of_;
};

}  // namespace pm::cluster
