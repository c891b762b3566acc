#include "exchange/settlement_pipeline.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "agents/strategy.h"
#include "common/check.h"

namespace pm::exchange {
namespace {

/// Splits awarded quota per cluster into buy/sell shapes.
struct ClusterDelta {
  cluster::TaskShape bought;
  cluster::TaskShape sold;
};

std::unordered_map<std::string, ClusterDelta> SplitByCluster(
    const PoolRegistry& registry, const bid::Bundle& bundle) {
  std::unordered_map<std::string, ClusterDelta> deltas;
  for (const bid::BundleItem& item : bundle.items()) {
    const PoolKey& key = registry.KeyOf(item.pool);
    ClusterDelta& delta = deltas[key.cluster];
    if (item.qty > 0.0) {
      delta.bought.Of(key.kind) += item.qty;
    } else {
      delta.sold.Of(key.kind) += -item.qty;
    }
  }
  return deltas;
}

}  // namespace

SettlementPipeline::SettlementPipeline(
    cluster::Fleet* fleet, std::vector<agents::TeamAgent>* agents,
    cluster::QuotaTable* quota, MarketAccounts* accounts,
    const SettlementPolicy& policy,
    const cluster::TaskShape& max_task_shape, cluster::JobId* next_job_id)
    : fleet_(fleet),
      agents_(agents),
      quota_(quota),
      accounts_(accounts),
      policy_(policy),
      max_task_shape_(max_task_shape),
      next_job_id_(next_job_id) {
  PM_CHECK(fleet_ != nullptr && agents_ != nullptr && quota_ != nullptr &&
           accounts_ != nullptr && next_job_id_ != nullptr);
}

void SettlementPipeline::Execute(const std::vector<AwardInput>& awards,
                                 const std::vector<double>& settled_prices,
                                 AuctionReport& report) {
  for (const AwardInput& input : awards) {
    PM_CHECK(input.bid != nullptr && input.award != nullptr);
    report.awards.push_back(AwardRecord{
        input.team, input.bid->name, input.award->bundle_index,
        input.award->payment, input.award->premium, PlacementOutcome{}});
    SettleMoney(input, report);
    // The record reference stays valid for the rest of this iteration:
    // nothing below appends to report.awards.
    ApplyPhysical(input, settled_prices, report.awards.back(), report);
  }
}

void SettlementPipeline::SettleMoney(const AwardInput& input,
                                     AuctionReport& report) {
  const auction::Award& award = *input.award;
  const std::string& name = input.bid->name;
  const Money amount = Money::FromDollarsRounded(std::abs(award.payment));
  std::string status;
  if (award.payment > 0.0) {
    status = accounts_->ChargeTeam(input.team, amount, "auction: " + name);
    if (!status.empty()) {
      // Overdraft: settle anyway (the quota is already committed) but
      // surface it — the budget gate failed, e.g. two winning buy bids
      // from one team.
      ++report.overdrafts;
      accounts_->Endow(input.team, amount - accounts_->BudgetOf(input.team),
                       "overdraft cover: " + name);
      status = accounts_->ChargeTeam(input.team, amount,
                                     "auction (overdraft): " + name);
      PM_CHECK_MSG(status.empty(), "settlement failed: " << status);
    }
  } else if (award.payment < 0.0) {
    accounts_->PayTeam(input.team, amount, "auction: " + name);
  }
}

void SettlementPipeline::ApplyPhysical(
    const AwardInput& input, const std::vector<double>& settled_prices,
    AwardRecord& record, AuctionReport& report) {
  const PoolRegistry& registry = fleet_->registry();
  const bid::Bid& b = *input.bid;
  const std::string& team = input.team;
  const bid::Bundle& bundle =
      b.bundles[static_cast<std::size_t>(input.award->bundle_index)];
  PlacementOutcome& outcome = record.outcome;

  // Quota first: the settled trade changes the team's entitlements
  // regardless of how (or whether) the physical placement lands.
  for (const bid::BundleItem& item : bundle.items()) {
    if (item.qty > 0.0) {
      quota_->Grant(team, item.pool, item.qty);
    } else {
      quota_->Release(team, item.pool, -item.qty);
    }
  }

  if (agents::IsArbitrageBidName(b.name) && !input.IsExternal()) {
    // Arbitrage trades move quota, not jobs: adjust the warehouse. The
    // outcome records the intents as delivered-in-full — there was no
    // physical placement to fail.
    std::vector<double>& holdings =
        (*agents_)[input.agent].mutable_holdings();
    holdings.resize(registry.size(), 0.0);
    for (const bid::BundleItem& item : bundle.items()) {
      holdings[item.pool] = std::max(0.0, holdings[item.pool] + item.qty);
    }
    outcome.quota_only = true;
    for (const auction::FillIntent& intent : input.award->intents) {
      if (intent.qty <= 0.0) continue;
      outcome.fills.push_back(PoolFill{intent.pool, intent.qty, intent.qty});
      outcome.awarded_units += intent.qty;
      outcome.placed_units += intent.qty;
    }
    return;
  }

  // Per-pool buy quantities from the award's fill intents. Bundle items
  // are canonical (duplicate pools merged at construction), so these
  // equal the positive cluster-delta entries; reading the intents keeps
  // the outcome — and any refund drawn from it — anchored to exactly
  // what the auction awarded and priced.
  std::unordered_map<PoolId, double> net_buy;
  for (const auction::FillIntent& intent : input.award->intents) {
    if (intent.qty > 0.0) net_buy.emplace(intent.pool, intent.qty);
  }

  const auto deltas = SplitByCluster(registry, bundle);
  std::string sold_from;
  std::string bought_in;
  cluster::TaskShape placed_bought;  // Buy-side shape that physically landed.

  // Releases first: free the capacity before anyone re-buys it.
  for (const auto& [cluster_name, delta] : deltas) {
    if (delta.sold.cpu <= 0.0 && delta.sold.ram_gb <= 0.0 &&
        delta.sold.disk_tb <= 0.0) {
      continue;
    }
    // The cluster may have migrated to another shard since the pools
    // were interned: the quota release above still stands, but there
    // is nothing physical to vacate here.
    if (!fleet_->HasCluster(cluster_name)) continue;
    sold_from = cluster_name;
    // Remove this team's jobs in the cluster, largest first, until the
    // sold quantities are covered (whole-job granularity; slight
    // over-release returns to the operator's free pool).
    cluster::Cluster& cl = fleet_->ClusterByName(cluster_name);
    std::vector<std::pair<double, cluster::JobId>> candidates;
    for (const cluster::Job& job : cl.Jobs()) {
      if (job.team == team) {
        candidates.emplace_back(job.TotalDemand().cpu, job.id);
      }
    }
    // (cpu, id) is a total order, so the walk order above cannot change
    // which jobs go.
    std::sort(candidates.rbegin(), candidates.rend());
    cluster::TaskShape freed;
    for (const auto& [cpu, id] : candidates) {
      if (freed.cpu >= delta.sold.cpu &&
          freed.ram_gb >= delta.sold.ram_gb &&
          freed.disk_tb >= delta.sold.disk_tb) {
        break;
      }
      const std::optional<cluster::Job> removed = cl.RemoveJob(id);
      PM_CHECK(removed.has_value());
      quota_->Refund(team, registry, cluster_name, removed->TotalDemand());
      freed += removed->TotalDemand();
      ++report.jobs_removed;
    }
  }

  for (const auto& [cluster_name, delta] : deltas) {
    if (delta.bought.cpu <= 0.0 && delta.bought.ram_gb <= 0.0 &&
        delta.bought.disk_tb <= 0.0) {
      continue;
    }
    // Record the buy-side fills of this cluster up front; `placed` stays
    // zero unless the placement below lands. A pool whose sells covered
    // its buys awarded nothing net and records no fill.
    const std::size_t first_fill = outcome.fills.size();
    for (ResourceKind kind : kAllResourceKinds) {
      if (delta.bought.Of(kind) <= 0.0) continue;
      const auto pool = registry.Find(PoolKey{cluster_name, kind});
      PM_CHECK(pool.has_value());
      const auto net = net_buy.find(*pool);
      if (net == net_buy.end()) continue;
      outcome.fills.push_back(PoolFill{*pool, net->second, 0.0});
      outcome.awarded_units += net->second;
    }
    // Quota won in a cluster that has since migrated away cannot
    // materialize physically; count it with the bin-packing failures.
    if (!fleet_->HasCluster(cluster_name)) {
      ++report.placement_failures;
      continue;
    }
    bought_in = cluster_name;
    // Materialize the bought quota as a job split into machine-sized
    // tasks.
    int tasks = 1;
    for (ResourceKind kind : kAllResourceKinds) {
      const double cap = max_task_shape_.Of(kind);
      if (cap > 0.0 && delta.bought.Of(kind) > 0.0) {
        tasks = std::max(
            tasks, static_cast<int>(std::ceil(delta.bought.Of(kind) / cap)));
      }
    }
    cluster::Job job;
    job.id = (*next_job_id_)++;
    job.team = team;
    job.tasks = tasks;
    job.shape = delta.bought * (1.0 / static_cast<double>(tasks));
    bool placed = fleet_->AddJob(cluster_name, job);
    if (!placed) {
      // Fragmentation: retry with tasks twice as fine.
      job.tasks *= 2;
      job.shape = delta.bought * (1.0 / job.tasks);
      job.id = (*next_job_id_)++;
      placed = fleet_->AddJob(cluster_name, job);
    }
    if (placed) {
      quota_->Charge(team, registry, cluster_name, delta.bought);
      placed_bought += delta.bought;
      ++report.jobs_added;
      for (std::size_t f = first_fill; f < outcome.fills.size(); ++f) {
        outcome.fills[f].placed = outcome.fills[f].awarded;
        outcome.placed_units += outcome.fills[f].placed;
      }
    } else {
      ++report.placement_failures;
    }
  }

  // Outcome verdict over the buy side (sells release at whole-job
  // granularity and never fail).
  if (outcome.awarded_units > 0.0) {
    if (outcome.placed_units <= 0.0) {
      outcome.status = PlacementOutcome::Status::kFailed;
    } else if (outcome.placed_units <
               outcome.awarded_units * (1.0 - 1e-12)) {
      outcome.status = PlacementOutcome::Status::kPartial;
      ++report.partial_placements;
    }
  }

  // Gated refund: unplaced units hand their entitlement back and are
  // repaid pro rata at the settled pool prices — the award is worth what
  // physically landed, no more.
  if (policy_.refund_unplaced) {
    double refund_value = 0.0;
    for (const PoolFill& fill : outcome.fills) {
      const double unplaced = fill.awarded - fill.placed;
      if (unplaced <= 0.0) continue;
      PM_CHECK(fill.pool < settled_prices.size());
      quota_->Release(team, fill.pool, unplaced);
      refund_value += unplaced * settled_prices[fill.pool];
      outcome.refunded_units += unplaced;
    }
    if (outcome.refunded_units > 0.0) {
      const Money refund = Money::FromDollarsRounded(refund_value);
      if (!refund.IsZero()) {
        accounts_->PayTeam(team, refund, "refund unplaced: " + b.name);
      }
      outcome.refund = refund.ToDouble();
      report.refund_total += outcome.refund;
      ++report.refund_ops;
    }
  }

  if (!sold_from.empty() || !bought_in.empty()) {
    MoveRecord move;
    move.team = team;
    move.from_cluster = sold_from;
    move.to_cluster = bought_in;
    for (const auto& [cluster_name, delta] : deltas) {
      move.amount += delta.bought;
    }
    move.reconfig_cost = Dot(move.amount, policy_.move_cost_weights);
    // Gated billing: the §V.B reconfiguration cost becomes a real charge
    // on the moving team, clamped to its remaining balance — a move can
    // exhaust the budget but never overdraft the ledger. Only the
    // physically PLACED shape is billable: a buy the bin-packer bounced
    // triggered no reconfiguration work, so billing its (recorded)
    // awarded-shape cost would charge the team for a move that never
    // happened — on top of the refund path already unwinding its money.
    const double billable =
        Dot(placed_bought, policy_.move_cost_weights);
    if (policy_.bill_moves && billable > 0.0) {
      const Money charge = std::min(Money::FromDollarsRounded(billable),
                                    accounts_->BudgetOf(team));
      if (!charge.IsZero()) {
        const std::string status = accounts_->ChargeTeam(
            team, charge, "move reconfig: " + b.name);
        PM_CHECK_MSG(status.empty(), "move billing failed: " << status);
        move.billed = charge.ToDouble();
        report.move_billing_total += move.billed;
      }
    }
    report.moves.push_back(std::move(move));
  }
}

}  // namespace pm::exchange
