// Tests for pm::cluster: machines, placement policies, clusters, fleet.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>

#include "agents/workload_gen.h"
#include "cluster/fleet.h"
#include "common/check.h"
#include "common/rng.h"
#include "exchange/market.h"

namespace pm::cluster {
namespace {

const TaskShape kMachine{16.0, 64.0, 8.0};

// ---------------------------------------------------------------- shapes --

TEST(TaskShapeTest, ComponentAccess) {
  TaskShape s{1.0, 2.0, 3.0};
  EXPECT_EQ(s.Of(ResourceKind::kCpu), 1.0);
  EXPECT_EQ(s.Of(ResourceKind::kRam), 2.0);
  EXPECT_EQ(s.Of(ResourceKind::kDisk), 3.0);
  s.Of(ResourceKind::kRam) = 9.0;
  EXPECT_EQ(s.ram_gb, 9.0);
}

TEST(TaskShapeTest, ArithmeticAndScaling) {
  const TaskShape a{1.0, 2.0, 3.0};
  const TaskShape b{0.5, 0.5, 0.5};
  EXPECT_EQ((a + b).cpu, 1.5);
  EXPECT_EQ((a - b).disk_tb, 2.5);
  EXPECT_EQ((a * 2.0).ram_gb, 4.0);
}

TEST(JobTest, TotalDemandScalesByTasks) {
  Job job;
  job.shape = {2.0, 8.0, 1.0};
  job.tasks = 5;
  EXPECT_EQ(job.TotalDemand().cpu, 10.0);
  EXPECT_EQ(job.TotalDemand().ram_gb, 40.0);
}

// --------------------------------------------------------------- machines --

TEST(MachineTest, PlaceAndRemoveTracksUsage) {
  Machine m(kMachine);
  const TaskShape task{4.0, 16.0, 2.0};
  EXPECT_TRUE(m.CanFit(task));
  m.Place(task);
  EXPECT_EQ(m.used().cpu, 4.0);
  EXPECT_EQ(m.Free().cpu, 12.0);
  m.Remove(task);
  EXPECT_EQ(m.used().cpu, 0.0);
}

TEST(MachineTest, CannotOverfill) {
  Machine m(kMachine);
  const TaskShape task{10.0, 10.0, 1.0};
  m.Place(task);
  EXPECT_FALSE(m.CanFit(task));  // 20 > 16 cpu.
  EXPECT_THROW(m.Place(task), CheckFailure);
}

TEST(MachineTest, FitIsPerDimension) {
  Machine m(kMachine);
  m.Place({1.0, 60.0, 1.0});
  EXPECT_FALSE(m.CanFit({1.0, 8.0, 1.0}));  // RAM binds.
  EXPECT_TRUE(m.CanFit({1.0, 4.0, 1.0}));
}

TEST(MachineTest, UtilizationPerKind) {
  Machine m(kMachine);
  m.Place({8.0, 16.0, 2.0});
  EXPECT_DOUBLE_EQ(m.Utilization(ResourceKind::kCpu), 0.5);
  EXPECT_DOUBLE_EQ(m.Utilization(ResourceKind::kRam), 0.25);
  EXPECT_DOUBLE_EQ(m.Utilization(ResourceKind::kDisk), 0.25);
}

TEST(MachineTest, RemoveUnplacedThrows) {
  Machine m(kMachine);
  EXPECT_THROW(m.Remove({4.0, 4.0, 4.0}), CheckFailure);
}

TEST(MachineTest, FillAfterIsMaxDimension) {
  Machine m(kMachine);
  EXPECT_DOUBLE_EQ(m.FillAfter({8.0, 16.0, 1.0}), 0.5);  // cpu 8/16.
}

// -------------------------------------------------------------- scheduler --

std::vector<Machine> ThreeMachines() {
  return {Machine(kMachine), Machine(kMachine), Machine(kMachine)};
}

TEST(SchedulerTest, BestFitTiesGoToLowestIndex) {
  // The first task ties across three empty machines and lands on machine
  // 0; the second then fits tightest there.
  auto machines = ThreeMachines();
  const PlacementResult r = PlaceTasks(machines, {4.0, 4.0, 1.0}, 2);
  EXPECT_TRUE(r.Complete());
  EXPECT_EQ(r.slots, (std::vector<PlacementSlot>{{0, 2}}));
}

TEST(SchedulerTest, BestFitPacksTightly) {
  auto machines = ThreeMachines();
  machines[1].Place({12.0, 12.0, 1.0});  // Machine 1 is nearly full.
  const PlacementResult r = PlaceTasks(machines, {4.0, 4.0, 1.0}, 1);
  EXPECT_TRUE(r.Complete());
  // Fills the tight machine first.
  EXPECT_EQ(r.slots, (std::vector<PlacementSlot>{{1, 1}}));
}

TEST(SchedulerTest, ReportsFailuresWhenFull) {
  std::vector<Machine> machines = {Machine({4.0, 4.0, 4.0})};
  const PlacementResult r = PlaceTasks(machines, {3.0, 1.0, 1.0}, 3);
  EXPECT_FALSE(r.Complete());
  EXPECT_EQ(r.TotalPlaced(), 1);
  EXPECT_EQ(r.tasks_failed, 2);
}

TEST(SchedulerTest, UndoRestoresState) {
  auto machines = ThreeMachines();
  const TaskShape task{4.0, 4.0, 1.0};
  const PlacementResult r = PlaceTasks(machines, task, 5);
  UndoPlacement(machines, task, r);
  for (const Machine& m : machines) {
    EXPECT_EQ(m.used().cpu, 0.0);
  }
}

// ---------------------------------------------------------------- cluster --

Job MakeJob(JobId id, const std::string& team, int tasks = 4) {
  Job job;
  job.id = id;
  job.team = team;
  job.shape = {2.0, 8.0, 1.0};
  job.tasks = tasks;
  return job;
}

TEST(ClusterTest, HomogeneousConstruction) {
  const Cluster c = Cluster::Homogeneous("c1", 5, kMachine);
  EXPECT_EQ(c.NumMachines(), 5u);
  EXPECT_EQ(c.Capacity(ResourceKind::kCpu), 80.0);
  EXPECT_EQ(c.Used(ResourceKind::kCpu), 0.0);
}

TEST(ClusterTest, AddJobIsAtomic) {
  Cluster c = Cluster::Homogeneous("c1", 1, {8.0, 32.0, 4.0});
  // 5 tasks of 2 cpu = 10 cpu > 8: must fail and leave no residue.
  EXPECT_FALSE(c.AddJob(MakeJob(1, "t", 5)));
  EXPECT_EQ(c.Used(ResourceKind::kCpu), 0.0);
  EXPECT_FALSE(c.HasJob(1));
}

TEST(ClusterTest, AddRemoveRoundTrip) {
  Cluster c = Cluster::Homogeneous("c1", 4, kMachine);
  EXPECT_TRUE(c.AddJob(MakeJob(7, "team-a")));
  EXPECT_TRUE(c.HasJob(7));
  EXPECT_EQ(c.Used(ResourceKind::kCpu), 8.0);
  const auto job = c.RemoveJob(7);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->team, "team-a");
  EXPECT_EQ(c.Used(ResourceKind::kCpu), 0.0);
}

TEST(ClusterTest, RemoveUnknownJobReturnsNullopt) {
  Cluster c = Cluster::Homogeneous("c1", 1, kMachine);
  EXPECT_FALSE(c.RemoveJob(42).has_value());
}

TEST(ClusterTest, DuplicateJobIdThrows) {
  Cluster c = Cluster::Homogeneous("c1", 4, kMachine);
  ASSERT_TRUE(c.AddJob(MakeJob(1, "a")));
  EXPECT_THROW(c.AddJob(MakeJob(1, "b")),
               CheckFailure);
}

TEST(ClusterTest, JobIdsInInsertionOrder) {
  Cluster c = Cluster::Homogeneous("c1", 8, kMachine);
  for (JobId id : {5, 2, 9}) {
    ASSERT_TRUE(c.AddJob(MakeJob(id, "t", 1)));
  }
  EXPECT_EQ(c.JobIds(), (std::vector<JobId>{5, 2, 9}));
}

// The job order Cluster kept before its jobs were stored in insertion
// order: a hash map whose entries carry an insertion counter, sorted by
// it on every walk.
class JobOrderOracle {
 public:
  void Add(const Job& job) { jobs_[job.id] = {job, next_order_++}; }
  void Remove(JobId id) { jobs_.erase(id); }
  void Renumber(JobId from, JobId to) {
    auto node = jobs_.extract(from);
    node.key() = to;
    node.mapped().first.id = to;
    jobs_.insert(std::move(node));
  }
  void Restore(const std::vector<Job>& in_order) {
    jobs_.clear();
    next_order_ = 0;
    for (const Job& job : in_order) Add(job);
  }
  bool Has(JobId id) const { return jobs_.count(id) > 0; }
  std::vector<Job> Walk() const {
    std::vector<std::pair<std::size_t, Job>> ordered;
    for (const auto& [id, entry] : jobs_) {
      ordered.emplace_back(entry.second, entry.first);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<Job> jobs;
    for (auto& [order, job] : ordered) jobs.push_back(std::move(job));
    return jobs;
  }

 private:
  std::unordered_map<JobId, std::pair<Job, std::size_t>> jobs_;
  std::size_t next_order_ = 0;
};

void ExpectSameJobOrder(const Cluster& c, const JobOrderOracle& oracle) {
  const std::vector<Job> expected = oracle.Walk();
  std::vector<JobId> expected_ids;
  for (const Job& job : expected) expected_ids.push_back(job.id);
  EXPECT_EQ(c.JobIds(), expected_ids);
  std::vector<JobId> walked;
  for (const Job& job : c.Jobs()) walked.push_back(job.id);
  EXPECT_EQ(walked, expected_ids);
  const std::vector<Cluster::PlacedJobRecord> records = c.ExportJobs();
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].job.id, expected[i].id);
    EXPECT_EQ(records[i].job.team, expected[i].team);
    EXPECT_EQ(records[i].job.tasks, expected[i].tasks);
    EXPECT_EQ(records[i].job.shape, expected[i].shape);
    EXPECT_EQ(records[i].placement.TotalPlaced(), expected[i].tasks);
    const Job* found = c.FindJob(expected[i].id);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->team, expected[i].team);
  }
}

TEST(ClusterTest, JobOrderMatchesSortedOracle) {
  RandomStream rng(4242);
  Cluster c = Cluster::Homogeneous("c1", 12, kMachine);
  JobOrderOracle oracle;
  JobId next_id = 1;
  std::vector<JobId> live;
  const auto pick_live = [&]() -> std::size_t {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
  };
  for (int step = 0; step < 3000; ++step) {
    const double op = rng.Uniform(0.0, 1.0);
    if (op < 0.45) {
      Job job = MakeJob(next_id++, "t" + std::to_string(step % 7),
                        static_cast<int>(rng.UniformInt(1, 3)));
      job.shape = {rng.Uniform(0.5, 3.0), rng.Uniform(1.0, 8.0), 0.5};
      if (c.AddJob(job)) {
        oracle.Add(job);
        live.push_back(job.id);
      }
    } else if (op < 0.80 && !live.empty()) {
      const std::size_t i = pick_live();
      ASSERT_TRUE(c.RemoveJob(live[i]).has_value());
      oracle.Remove(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op < 0.90 && !live.empty()) {
      const std::size_t i = pick_live();
      c.RenumberJob(live[i], next_id);
      oracle.Renumber(live[i], next_id);
      live[i] = next_id++;
    } else if (op < 0.95) {
      // Checkpoint round trip: the machines carry their usage over, the
      // records their order.
      Cluster restored("c1", c.machines());
      restored.RestoreJobs(c.ExportJobs());
      oracle.Restore(oracle.Walk());
      c = std::move(restored);
    } else {
      // A copy keeps its own order: mutate the original and check the
      // copy did not follow.
      const Cluster copy = c;
      const JobOrderOracle copy_oracle = oracle;
      if (!live.empty()) {
        const std::size_t i = pick_live();
        ASSERT_TRUE(c.RemoveJob(live[i]).has_value());
        oracle.Remove(live[i]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      }
      ExpectSameJobOrder(copy, copy_oracle);
    }
    for (const JobId id : live) ASSERT_TRUE(oracle.Has(id));
    ExpectSameJobOrder(c, oracle);
    if (HasFailure()) FAIL() << "diverged at step " << step;
  }
}

TEST(ClusterTest, UtilizationAggregatesMachines) {
  Cluster c = Cluster::Homogeneous("c1", 2, kMachine);
  ASSERT_TRUE(c.AddJob(MakeJob(1, "t", 4)));
  // 8 cpu over 32 capacity.
  EXPECT_DOUBLE_EQ(c.Utilization(ResourceKind::kCpu), 0.25);
  EXPECT_DOUBLE_EQ(c.MaxUtilization(),
                   c.Utilization(ResourceKind::kRam));  // RAM dominates.
}

// ------------------------------------------------------------------ fleet --

Fleet MakeFleet() {
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::Homogeneous("a", 2, kMachine));
  clusters.push_back(Cluster::Homogeneous("b", 4, kMachine));
  return Fleet(std::move(clusters), TaskShape{10.0, 1.5, 0.8});
}

TEST(FleetTest, RegistryHasPoolPerClusterKind) {
  const Fleet fleet = MakeFleet();
  EXPECT_EQ(fleet.NumPools(), 6u);
  EXPECT_EQ(fleet.ClusterNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(
      fleet.registry().Find(PoolKey{"b", ResourceKind::kDisk}).has_value());
}

TEST(FleetTest, DuplicateClusterNamesThrow) {
  std::vector<Cluster> clusters;
  clusters.push_back(Cluster::Homogeneous("x", 1, kMachine));
  clusters.push_back(Cluster::Homogeneous("x", 1, kMachine));
  EXPECT_THROW(Fleet(std::move(clusters), TaskShape{1, 1, 1}),
               CheckFailure);
}

TEST(FleetTest, VectorsAreConsistent) {
  Fleet fleet = MakeFleet();
  ASSERT_TRUE(fleet.AddJob("a", MakeJob(1, "t", 4)));
  const auto cap = fleet.CapacityVector();
  const auto used = fleet.UsedVector();
  const auto free = fleet.FreeVector();
  const auto util = fleet.UtilizationVector();
  for (std::size_t r = 0; r < cap.size(); ++r) {
    EXPECT_NEAR(free[r], cap[r] - used[r], 1e-9);
    if (cap[r] > 0) EXPECT_NEAR(util[r], used[r] / cap[r], 1e-12);
  }
}

TEST(FleetTest, CostVectorFollowsKind) {
  const Fleet fleet = MakeFleet();
  const auto costs = fleet.CostVector();
  const auto cpu_a = fleet.registry().Find(PoolKey{"a", ResourceKind::kCpu});
  const auto disk_b =
      fleet.registry().Find(PoolKey{"b", ResourceKind::kDisk});
  EXPECT_DOUBLE_EQ(costs[*cpu_a], 10.0);
  EXPECT_DOUBLE_EQ(costs[*disk_b], 0.8);
}

TEST(FleetTest, MoveJobBetweenClusters) {
  Fleet fleet = MakeFleet();
  ASSERT_TRUE(fleet.AddJob("a", MakeJob(1, "t", 4)));
  EXPECT_EQ(fleet.LocateJob(1), "a");
  EXPECT_TRUE(fleet.MoveJob(1, "b"));
  EXPECT_EQ(fleet.LocateJob(1), "b");
  EXPECT_EQ(fleet.ClusterByName("a").Used(ResourceKind::kCpu), 0.0);
}

TEST(FleetTest, MoveJobRevertsWhenDestinationFull) {
  Fleet fleet = MakeFleet();
  ASSERT_TRUE(fleet.AddJob("a", MakeJob(1, "t", 4)));
  // Fill cluster b completely: each 8-task job fills one 16-core
  // machine exactly; b has 4 machines.
  for (JobId id = 10; id < 14; ++id) {
    ASSERT_TRUE(fleet.AddJob("b", MakeJob(id, "filler", 8)));
  }
  EXPECT_FALSE(fleet.MoveJob(1, "b"));
  EXPECT_EQ(fleet.LocateJob(1), "a");  // Restored.
}

TEST(FleetTest, MoveToSameClusterIsNoop) {
  Fleet fleet = MakeFleet();
  ASSERT_TRUE(fleet.AddJob("a", MakeJob(1, "t", 1)));
  EXPECT_TRUE(fleet.MoveJob(1, "a"));
  EXPECT_EQ(fleet.LocateJob(1), "a");
}

TEST(FleetTest, MoveUnknownJobReturnsFalse) {
  Fleet fleet = MakeFleet();
  EXPECT_FALSE(fleet.MoveJob(99, "b"));
}

TEST(FleetTest, RemoveJobSearchesAllClusters) {
  Fleet fleet = MakeFleet();
  ASSERT_TRUE(fleet.AddJob("b", MakeJob(3, "t", 2)));
  const auto removed = fleet.RemoveJob(3);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(fleet.LocateJob(3), "");
}

TEST(FleetTest, AllJobsListsLocations) {
  Fleet fleet = MakeFleet();
  ASSERT_TRUE(fleet.AddJob("a", MakeJob(1, "t", 1)));
  ASSERT_TRUE(fleet.AddJob("b", MakeJob(2, "t", 1)));
  const auto jobs = fleet.AllJobs();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].cluster, "a");
  EXPECT_EQ(jobs[1].cluster, "b");
}

TEST(FleetTest, FleetUtilizationIsWeightedAverage) {
  Fleet fleet = MakeFleet();
  ASSERT_TRUE(fleet.AddJob("a", MakeJob(1, "t", 4)));  // 8 cpu of 96 total.
  EXPECT_NEAR(fleet.FleetUtilization(ResourceKind::kCpu), 8.0 / 96.0,
              1e-12);
}

TEST(FleetTest, UtilizationPercentileRanksClusters) {
  Fleet fleet = MakeFleet();
  ASSERT_TRUE(fleet.AddJob("a", MakeJob(1, "t", 8)));
  // Cluster a is busier than b: a should rank above b.
  const double pa = fleet.UtilizationPercentile("a", ResourceKind::kCpu);
  const double pb = fleet.UtilizationPercentile("b", ResourceKind::kCpu);
  EXPECT_GT(pa, pb);
  EXPECT_THROW(fleet.UtilizationPercentile("zz", ResourceKind::kCpu),
               CheckFailure);
}

// ------------------------------------ cached totals and percentile table --
// Cluster keeps per-kind capacity/used totals and Fleet builds the Figure 7
// percentile table in one pass. The oracles are the machine-order sums
// (recomputed here) and the per-pool UtilizationPercentile.

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectTotalsMatchMachines(const Cluster& c) {
  for (ResourceKind kind : kAllResourceKinds) {
    double capacity = 0.0;
    double used = 0.0;
    for (const Machine& m : c.machines()) {
      capacity += m.capacity().Of(kind);
      used += m.used().Of(kind);
    }
    EXPECT_TRUE(BitEqual(c.Capacity(kind), capacity))
        << c.name() << " " << ToString(kind) << " capacity "
        << c.Capacity(kind) << " vs " << capacity;
    EXPECT_TRUE(BitEqual(c.Used(kind), used))
        << c.name() << " " << ToString(kind) << " used " << c.Used(kind)
        << " vs " << used;
  }
}

void ExpectPercentilesMatchOracle(const Fleet& fleet) {
  const std::vector<double> table = fleet.UtilizationPercentiles();
  ASSERT_EQ(table.size(), fleet.NumPools());
  for (PoolId id = 0; id < table.size(); ++id) {
    const PoolKey& key = fleet.registry().KeyOf(id);
    if (!fleet.HasCluster(key.cluster)) {
      EXPECT_TRUE(std::isnan(table[id])) << ToString(key);
      continue;
    }
    const double oracle = fleet.UtilizationPercentile(key.cluster, key.kind);
    EXPECT_TRUE(BitEqual(table[id], oracle))
        << ToString(key) << ": " << table[id] << " vs " << oracle;
  }
}

void ExpectFleetMatchesOracles(const Fleet& fleet) {
  for (const Cluster& c : fleet.clusters()) ExpectTotalsMatchMachines(c);
  ExpectPercentilesMatchOracle(fleet);
}

/// Six clusters in two sizes. "a"/"b" and "c"/"d" are identical and
/// receive identical jobs first, so their utilizations tie exactly.
Fleet MakeTiedFleet() {
  std::vector<Cluster> clusters;
  for (const char* name : {"a", "b", "e"}) {
    clusters.push_back(Cluster::Homogeneous(name, 3, kMachine));
  }
  for (const char* name : {"c", "d", "f"}) {
    clusters.push_back(Cluster::Homogeneous(name, 5, kMachine));
  }
  Fleet fleet(std::move(clusters), TaskShape{10.0, 1.5, 0.8});
  JobId id = 1000;
  for (const char* name : {"a", "b", "c", "d"}) {
    Job job;
    job.id = id++;
    job.team = "tie";
    job.shape = TaskShape{0.3, 1.7, 0.11};  // Inexact in binary.
    job.tasks = 7;
    EXPECT_TRUE(fleet.AddJob(name, job));
  }
  return fleet;
}

TEST(ClusterTotalsTest, RandomMutationsKeepTotalsAndPercentilesExact) {
  Fleet fleet = MakeTiedFleet();
  ExpectFleetMatchesOracles(fleet);
  const std::vector<std::string> names = fleet.ClusterNames();
  const TaskShape shapes[] = {
      {0.3, 1.7, 0.11}, {1.1, 3.3, 0.7}, {2.0, 8.0, 1.0}};
  RandomStream rng(20091);
  std::vector<JobId> live;
  JobId next_id = 1;
  int failed_adds = 0;
  int moves = 0;
  for (int step = 0; step < 400; ++step) {
    const std::int64_t op = live.empty() ? 0 : rng.UniformInt(0, 3);
    if (op <= 1) {
      Job job;
      job.id = next_id++;
      job.team = "t";
      job.shape = shapes[rng.UniformInt(0, 2)];
      job.tasks = static_cast<int>(rng.UniformInt(1, 60));
      const std::string& where =
          names[static_cast<std::size_t>(rng.UniformInt(0, 5))];
      if (fleet.AddJob(where, job)) {
        live.push_back(job.id);
      } else {
        ++failed_adds;  // Partially placed, then undone.
      }
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      if (op == 2) {
        ASSERT_TRUE(fleet.RemoveJob(live[pick]).has_value());
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        fleet.MoveJob(live[pick],
                      names[static_cast<std::size_t>(rng.UniformInt(0, 5))]);
        ++moves;
      }
    }
    ExpectFleetMatchesOracles(fleet);
    if (HasFailure()) return;
  }
  EXPECT_GT(failed_adds, 0);
  EXPECT_GT(moves, 0);
}

TEST(ClusterTotalsTest, TiedUtilizationsShareOnePercentile) {
  const Fleet fleet = MakeTiedFleet();
  const std::vector<double> table = fleet.UtilizationPercentiles();
  const PoolRegistry& registry = fleet.registry();
  for (ResourceKind kind : kAllResourceKinds) {
    const PoolId a = *registry.Find(PoolKey{"a", kind});
    const PoolId b = *registry.Find(PoolKey{"b", kind});
    const PoolId e = *registry.Find(PoolKey{"e", kind});
    const PoolId f = *registry.Find(PoolKey{"f", kind});
    EXPECT_EQ(table[a], table[b]);
    EXPECT_EQ(table[e], table[f]);  // Both empty.
    EXPECT_GT(table[a], table[e]);
  }
}

TEST(ClusterTotalsTest, ExtractAndAdoptMarkDeadPoolsNaN) {
  Fleet fleet = MakeTiedFleet();
  Cluster moved = fleet.ExtractCluster("b");
  ExpectFleetMatchesOracles(fleet);
  const std::vector<double> table = fleet.UtilizationPercentiles();
  for (ResourceKind kind : kAllResourceKinds) {
    EXPECT_TRUE(std::isnan(table[*fleet.registry().Find(PoolKey{"b", kind})]));
  }
  ExpectTotalsMatchMachines(moved);

  // Adopted under a new name: fresh pools at the end of the registry.
  moved.SetName("b@elsewhere");
  fleet.AdoptCluster(std::move(moved));
  ExpectFleetMatchesOracles(fleet);
  Cluster again = fleet.ExtractCluster("b@elsewhere");
  // Adopted back under its first name: its old pools come alive again.
  again.SetName("b");
  fleet.AdoptCluster(std::move(again));
  ExpectFleetMatchesOracles(fleet);
  const std::vector<double> revived = fleet.UtilizationPercentiles();
  for (ResourceKind kind : kAllResourceKinds) {
    EXPECT_FALSE(
        std::isnan(revived[*fleet.registry().Find(PoolKey{"b", kind})]));
    EXPECT_TRUE(std::isnan(
        revived[*fleet.registry().Find(PoolKey{"b@elsewhere", kind})]));
  }
}

TEST(ClusterTotalsTest, FromStateWithShuffledPoolOrder) {
  // Machines restored with non-zero usage, as a checkpoint restore does.
  std::vector<Cluster> clusters;
  for (const char* name : {"x", "y", "z"}) {
    std::vector<Machine> machines;
    for (int m = 0; m < 4; ++m) {
      Machine machine(kMachine);
      machine.RestoreUsed(TaskShape{0.1 * (m + 1), 0.7 * m, 0.33});
      machines.push_back(machine);
    }
    clusters.emplace_back(name, std::move(machines));
  }
  // Not cluster-major, and with pools of a departed cluster "gone".
  std::vector<PoolKey> order;
  for (ResourceKind kind : {ResourceKind::kDisk, ResourceKind::kCpu,
                            ResourceKind::kRam}) {
    for (const char* name : {"z", "gone", "x", "y"}) {
      order.push_back(PoolKey{name, kind});
    }
  }
  const Fleet fleet = Fleet::FromState(std::move(clusters), order,
                                       TaskShape{10.0, 1.5, 0.8});
  ASSERT_EQ(fleet.NumPools(), order.size());
  ExpectFleetMatchesOracles(fleet);
  const std::vector<double> table = fleet.UtilizationPercentiles();
  for (ResourceKind kind : kAllResourceKinds) {
    EXPECT_TRUE(
        std::isnan(table[*fleet.registry().Find(PoolKey{"gone", kind})]));
  }
}

TEST(ClusterTotalsTest, MarketSnapshotRoundTripKeepsTotalsExact) {
  agents::WorkloadConfig config;
  config.num_clusters = 5;
  config.num_teams = 20;
  config.min_machines_per_cluster = 10;
  config.max_machines_per_cluster = 20;
  config.seed = 77;
  agents::World world = agents::GenerateWorld(config);
  exchange::Market market(&world.fleet, &world.agents, world.fixed_prices,
                          exchange::MarketConfig{});
  market.RunAuction();
  ExpectFleetMatchesOracles(world.fleet);
  const std::vector<std::uint8_t> frame = market.Snapshot();

  agents::World twin = agents::GenerateWorld(config);
  exchange::Market restored(&twin.fleet, &twin.agents, twin.fixed_prices,
                            exchange::MarketConfig{});
  restored.Restore(frame);
  ExpectFleetMatchesOracles(twin.fleet);
  ASSERT_EQ(twin.fleet.NumClusters(), world.fleet.NumClusters());
  for (std::size_t i = 0; i < world.fleet.NumClusters(); ++i) {
    const Cluster& a = world.fleet.clusters()[i];
    const Cluster& b = twin.fleet.clusters()[i];
    for (ResourceKind kind : kAllResourceKinds) {
      EXPECT_TRUE(BitEqual(a.Capacity(kind), b.Capacity(kind)));
      EXPECT_TRUE(BitEqual(a.Used(kind), b.Used(kind)));
    }
  }
  EXPECT_EQ(restored.Snapshot(), frame);
}

}  // namespace
}  // namespace pm::cluster
