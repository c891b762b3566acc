#include "cluster/quota.h"

#include <algorithm>

#include "common/check.h"

namespace pm::cluster {

QuotaTable::Cell& QuotaTable::CellOf(const std::string& team,
                                     PoolId pool) {
  auto [it, inserted] = table_.try_emplace(team);
  if (inserted) team_order_.push_back(team);
  return it->second[pool];
}

const QuotaTable::Cell* QuotaTable::FindCell(const std::string& team,
                                             PoolId pool) const {
  const auto team_it = table_.find(team);
  if (team_it == table_.end()) return nullptr;
  const auto pool_it = team_it->second.find(pool);
  if (pool_it == team_it->second.end()) return nullptr;
  return &pool_it->second;
}

void QuotaTable::Grant(const std::string& team, PoolId pool,
                       double units) {
  PM_CHECK_MSG(units >= 0.0, "negative grant of " << units
                                                  << " (use Release)");
  CellOf(team, pool).entitlement += units;
}

void QuotaTable::Release(const std::string& team, PoolId pool,
                         double units) {
  PM_CHECK_MSG(units >= 0.0, "negative release of " << units);
  Cell& cell = CellOf(team, pool);
  cell.entitlement = std::max(0.0, cell.entitlement - units);
}

double QuotaTable::EntitlementOf(const std::string& team,
                                 PoolId pool) const {
  const Cell* cell = FindCell(team, pool);
  return cell == nullptr ? 0.0 : cell->entitlement;
}

double QuotaTable::UsageOf(const std::string& team, PoolId pool) const {
  const Cell* cell = FindCell(team, pool);
  return cell == nullptr ? 0.0 : cell->usage;
}

double QuotaTable::HeadroomOf(const std::string& team,
                              PoolId pool) const {
  const Cell* cell = FindCell(team, pool);
  return cell == nullptr ? 0.0 : cell->entitlement - cell->usage;
}

bool QuotaTable::WouldExceed(const std::string& team,
                             const PoolRegistry& registry,
                             const std::string& cluster,
                             const TaskShape& demand) const {
  for (ResourceKind kind : kAllResourceKinds) {
    const double amount = demand.Of(kind);
    if (amount <= 0.0) continue;
    const auto pool = registry.Find(PoolKey{cluster, kind});
    if (!pool.has_value()) return true;  // Unknown pool: never admitted.
    if (amount > HeadroomOf(team, *pool) + 1e-9) return true;
  }
  return false;
}

void QuotaTable::Charge(const std::string& team,
                        const PoolRegistry& registry,
                        const std::string& cluster,
                        const TaskShape& demand) {
  for (ResourceKind kind : kAllResourceKinds) {
    const double amount = demand.Of(kind);
    if (amount <= 0.0) continue;
    const auto pool = registry.Find(PoolKey{cluster, kind});
    PM_CHECK_MSG(pool.has_value(), "charging quota in unknown pool "
                                       << ToString(kind) << "@" << cluster);
    CellOf(team, *pool).usage += amount;
  }
}

void QuotaTable::Refund(const std::string& team,
                        const PoolRegistry& registry,
                        const std::string& cluster,
                        const TaskShape& demand) {
  for (ResourceKind kind : kAllResourceKinds) {
    const double amount = demand.Of(kind);
    if (amount <= 0.0) continue;
    const auto pool = registry.Find(PoolKey{cluster, kind});
    if (!pool.has_value()) continue;
    Cell& cell = CellOf(team, *pool);
    cell.usage = std::max(0.0, cell.usage - amount);
  }
}

bool QuotaTable::OverQuota(const std::string& team,
                           double tolerance) const {
  const auto team_it = table_.find(team);
  if (team_it == table_.end()) return false;
  for (const auto& [pool, cell] : team_it->second) {
    if (cell.usage > cell.entitlement + tolerance) return true;
  }
  return false;
}

std::vector<std::string> QuotaTable::Teams() const { return team_order_; }

std::vector<QuotaTable::Row> QuotaTable::ExportRows() const {
  std::vector<Row> rows;
  for (const std::string& team : team_order_) {
    const auto team_it = table_.find(team);
    PM_CHECK(team_it != table_.end());
    std::vector<PoolId> pools;
    pools.reserve(team_it->second.size());
    for (const auto& [pool, cell] : team_it->second) pools.push_back(pool);
    std::sort(pools.begin(), pools.end());
    for (PoolId pool : pools) {
      const Cell& cell = team_it->second.at(pool);
      rows.push_back(Row{team, pool, cell.entitlement, cell.usage});
    }
  }
  return rows;
}

void QuotaTable::RestoreRows(const std::vector<Row>& rows,
                             const std::size_t num_pools) {
  PM_CHECK_MSG(table_.empty() && team_order_.empty(),
               "RestoreRows into a non-empty quota table");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    PM_CHECK_MSG(row.pool < num_pools, "quota row of team '"
                                           << row.team << "' for pool "
                                           << row.pool << " of " << num_pools);
    if (i > 0 && rows[i - 1].team == row.team) {
      PM_CHECK_MSG(rows[i - 1].pool < row.pool,
                   "quota rows of team '" << row.team
                                          << "' are not strictly ascending");
    } else {
      PM_CHECK_MSG(table_.find(row.team) == table_.end(),
                   "quota rows of team '" << row.team
                                          << "' are not contiguous");
    }
    Cell& cell = CellOf(row.team, row.pool);
    cell.entitlement = row.entitlement;
    cell.usage = row.usage;
  }
}

}  // namespace pm::cluster
