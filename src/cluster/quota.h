// planetmarket: quota accounting — the bridge from market to scheduler.
//
// §I: "The system operator must place hard limits on the CPU, disk,
// memory, etc. that each job or job class can use … These allocation
// limits are then mapped into the low-level scheduling algorithms used to
// actually assign jobs to units of physical hardware." In the market
// world those limits are no longer hand-set: the auction *grants* quota
// (bought bundles add, sold bundles release) and the placement layer
// checks usage against it. QuotaTable is that registry: per (team, pool)
// entitlements and usage, with the WouldExceed test the admission path
// consults before placing a job.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/job.h"
#include "common/types.h"

namespace pm::cluster {

/// Per-team, per-pool quota entitlements and usage.
///
/// Quantities are pool units (cores / GB / TB). Usage may be charged and
/// refunded as jobs come and go; entitlements change only through
/// Grant/Release (i.e. market settlement or operator fiat).
class QuotaTable {
 public:
  QuotaTable() = default;

  /// Adds entitlement. Negative deltas are rejected (use Release).
  void Grant(const std::string& team, PoolId pool, double units);

  /// Removes entitlement, clamping at zero (selling more than granted
  /// cannot create negative quota). Usage is NOT forced down: a team
  /// that sold quota out from under its running jobs is simply over
  /// quota until the physical capacity is vacated — exactly the state
  /// the market's migration step resolves.
  void Release(const std::string& team, PoolId pool, double units);

  /// Current entitlement (0 for unknown teams/pools).
  double EntitlementOf(const std::string& team, PoolId pool) const;

  /// Current charged usage (0 for unknown teams/pools).
  double UsageOf(const std::string& team, PoolId pool) const;

  /// Headroom = entitlement − usage (may be negative, see Release).
  double HeadroomOf(const std::string& team, PoolId pool) const;

  /// Whether charging `demand` (aggregate job demand, mapped onto the
  /// pools of `cluster` via `registry`) would push the team over quota
  /// in any dimension.
  bool WouldExceed(const std::string& team, const PoolRegistry& registry,
                   const std::string& cluster,
                   const TaskShape& demand) const;

  /// Charges usage for a placed job (no limit check — pair with
  /// WouldExceed for admission control).
  void Charge(const std::string& team, const PoolRegistry& registry,
              const std::string& cluster, const TaskShape& demand);

  /// Refunds usage for a removed job, clamping at zero.
  void Refund(const std::string& team, const PoolRegistry& registry,
              const std::string& cluster, const TaskShape& demand);

  /// True when the team is over quota in any pool (usage > entitlement
  /// beyond tolerance).
  bool OverQuota(const std::string& team, double tolerance = 1e-9) const;

  /// Teams with any recorded entitlement or usage, in first-seen order.
  std::vector<std::string> Teams() const;

  /// One (team, pool) cell, for checkpointing.
  struct Row {
    std::string team;
    PoolId pool = 0;
    double entitlement = 0.0;
    double usage = 0.0;
  };

  /// Every cell, teams in first-seen order and pools ascending within a
  /// team — a deterministic flattening of the table.
  std::vector<Row> ExportRows() const;

  /// Checkpoint restore into an empty table: replays rows so team order
  /// and cell values round-trip exactly. The rows must be in ExportRows'
  /// order (each team's rows contiguous, pools strictly ascending) and
  /// name pools below `num_pools`; anything else CHECK-fails, so every
  /// accepted input exports back to itself.
  void RestoreRows(const std::vector<Row>& rows, std::size_t num_pools);

 private:
  struct Cell {
    double entitlement = 0.0;
    double usage = 0.0;
  };
  using PoolMap = std::unordered_map<PoolId, Cell>;

  Cell& CellOf(const std::string& team, PoolId pool);
  const Cell* FindCell(const std::string& team, PoolId pool) const;

  std::unordered_map<std::string, PoolMap> table_;
  std::vector<std::string> team_order_;
};

}  // namespace pm::cluster
