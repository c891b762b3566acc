// planetmarket: bidding strategies.
//
// Each strategy reproduces a bidder population the paper observed (§V.B–C):
//
//  * TruthfulGrowth — grows wherever believed-cheapest; limits close to
//    believed cost × value multiplier. The well-behaved baseline bidder.
//  * PremiumSticky — "teams that were willing to pay a significant price
//    premium to continue growing in congested clusters": bids only on the
//    home cluster with a large markup. Produces Figure 7's high-percentile
//    bid outliers.
//  * OpportunistMover — "a number of large teams offer resources on the
//    market to take advantage of the higher prices and move to less
//    congested clusters": one offer selling part of the congested home
//    footprint, one bid rebuying in the believed-cheapest cold cluster,
//    gated on the price differential exceeding the relocation cost.
//  * LowballSeller — "some sellers will enter very low prices confident
//    that there will be ample competition and that the final market price
//    will be fair": asks a token minimum. Keeps Table I's mean γ noisy.
//  * Arbitrageur — §V.C's "increasing sophistication towards arbitrage
//    opportunities": buys pools priced below belief, resells warehoused
//    holdings priced above.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "agents/team.h"

namespace pm::agents {

/// Context handed to strategies: the agent's own state plus the market.
struct StrategyContext {
  const TeamProfile* profile = nullptr;
  const MarketView* view = nullptr;
  PriceLearner* learner = nullptr;
  RandomStream* rng = nullptr;
  std::vector<double>* holdings = nullptr;  // Arbitrage inventory.
  /// The agent's per-pool placement-failure memory (may be null or
  /// shorter than the registry; missing pools read as penalty 0). All
  /// zeros until the market's outcome_feedback gate delivers placement
  /// feedback, in which case strategies de-prioritize — and past
  /// kPlacementPenaltyAvoid, skip — chronically unplaceable clusters.
  const std::vector<double>* placement_penalty = nullptr;
};

/// Turns market state into this auction's bids.
class Strategy {
 public:
  virtual ~Strategy() = default;

  virtual std::vector<bid::Bid> MakeBids(const StrategyContext& ctx) = 0;

  virtual std::string_view Name() const = 0;
};

/// Factory for the canned strategies.
std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind);

/// The arbitrage naming contract shared by the resident Arbitrageur
/// strategy, the federation's cross-shard ArbitrageAgent, and the
/// exchange's settlement path: a bid whose name contains "/arb-" trades
/// warehoused quota. For *resident* bidders the market adjusts the
/// agent's warehouse instead of moving jobs; external (federation-routed)
/// arbitrage settles physically — its warehouse is real placed jobs.
bool IsArbitrageBidName(std::string_view bid_name);

/// Helper shared by strategies and tests: the bundle a team of shape
/// `delta` needs in `cluster` (one item per resource kind with nonzero
/// demand), built against `registry`. `cluster` is a registry cluster
/// index (PoolRegistry::ClusterIndex); the by-name form looks it up.
bid::Bundle BundleForCluster(const PoolRegistry& registry,
                             std::size_t cluster,
                             const cluster::TaskShape& delta);
bid::Bundle BundleForCluster(const PoolRegistry& registry,
                             const std::string& cluster,
                             const cluster::TaskShape& delta);

/// Helper: believed cost of placing `delta` in `cluster` (index or name).
double BelievedClusterCost(const PoolRegistry& registry,
                           const PriceLearner& learner, std::size_t cluster,
                           const cluster::TaskShape& delta);
double BelievedClusterCost(const PoolRegistry& registry,
                           const PriceLearner& learner,
                           const std::string& cluster,
                           const cluster::TaskShape& delta);

/// Weight of the placement-failure memory in cluster ranking: candidate
/// clusters are ordered by believed cost × (1 + weight × penalty), so a
/// fully distrusted cluster (penalty 1) reads 3× as expensive. The bid
/// limits themselves stay anchored to raw believed cost.
inline constexpr double kPlacementPenaltyWeight = 2.0;

/// Clusters whose penalty meets this bar are skipped outright as growth
/// or relocation alternatives — the market kept awarding there and the
/// bin-packer kept failing, so bidding again only burns budget (the
/// refund path repays money, never the lost auction round).
inline constexpr double kPlacementPenaltyAvoid = 0.6;

/// The cluster's penalty: the worst per-kind pool score in the agent's
/// placement memory (0 when the memory is null/empty — the gate-off
/// path, where every factor below multiplies by exactly 1 — and for a
/// name the registry does not know).
double ClusterPlacementPenalty(const PoolRegistry& registry,
                               const std::vector<double>* penalty,
                               std::size_t cluster);
double ClusterPlacementPenalty(const PoolRegistry& registry,
                               const std::vector<double>* penalty,
                               const std::string& cluster);

/// Registry cluster indices ranked by believed cost of hosting `delta`,
/// cheapest first, ties broken by cluster name, produced lazily: the
/// constructor costs every cluster once and heapifies (O(C)), and each
/// Next() pops the cheapest remaining cluster (O(log C)), so a bidder
/// that keeps the first few clusters that fit never orders the rest.
/// Cost is scaled by the placement-penalty factor, and chronically
/// unplaceable clusters (penalty >= kPlacementPenaltyAvoid) are dropped
/// without being costed; with no placement memory (the
/// outcome_feedback-off path) every factor is exactly 1 and nothing is
/// dropped, so the ranking is the price-only ordering.
class ClusterRanking {
 public:
  ClusterRanking(const PoolRegistry& registry, const PriceLearner& learner,
                 const std::vector<double>* placement_penalty,
                 const cluster::TaskShape& delta);

  /// The cheapest cluster not yet returned; nullopt once all are.
  std::optional<std::size_t> Next();

 private:
  /// Whether cluster `a` ranks after cluster `b` (the heap's "less").
  bool After(std::size_t a, std::size_t b) const;

  const std::vector<std::string>* names_;
  std::vector<double> costs_;      // Ranked cost by cluster index.
  std::vector<std::size_t> heap_;  // Ranked clusters not yet returned.
};

}  // namespace pm::agents
