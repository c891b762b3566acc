#include "agents/strategy.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "common/check.h"

namespace pm::agents {
namespace {

/// Scales a footprint by the growth rate, with a floor so small teams
/// still request a placeable quantum.
cluster::TaskShape GrowthDelta(const TeamProfile& profile) {
  cluster::TaskShape delta = profile.footprint * profile.growth_rate;
  delta.cpu = std::max(delta.cpu, 1.0);
  delta.ram_gb = std::max(delta.ram_gb, 2.0);
  delta.disk_tb = std::max(delta.disk_tb, 0.1);
  return delta;
}

/// Sentinel cluster index: never equal to a registry cluster index.
constexpr std::size_t kNoCluster = static_cast<std::size_t>(-1);

/// The registry's cluster index of the team's home (kNoCluster if the
/// home has no interned pool).
std::size_t HomeIndex(const PoolRegistry& registry,
                      const TeamProfile& profile) {
  return registry.ClusterIndex(profile.home_cluster).value_or(kNoCluster);
}

/// Whether `delta` fits in the operator's free capacity of `cluster`
/// (strategies avoid bidding into walls — proxies would just drop out).
bool FitsFreeCapacity(const MarketView& view, std::size_t cluster,
                      const cluster::TaskShape& delta) {
  for (ResourceKind kind : kAllResourceKinds) {
    if (delta.Of(kind) <= 0.0) continue;
    const PoolId id = view.registry->PoolOf(cluster, kind);
    if (id == kInvalidPool) return false;
    if (view.free_capacity[id] < delta.Of(kind)) return false;
  }
  return true;
}

double ClampLimit(double limit, double budget) {
  return std::min(limit, budget);
}

class TruthfulGrowthStrategy final : public Strategy {
 public:
  std::vector<bid::Bid> MakeBids(const StrategyContext& ctx) override {
    const TeamProfile& profile = *ctx.profile;
    const cluster::TaskShape delta = GrowthDelta(profile);
    const PoolRegistry& registry = *ctx.view->registry;

    // XOR over the home cluster and up to three believed-cheapest
    // alternatives that currently have room. Growth is a *new*
    // deployment, so unlike a relocation it carries only a small setup
    // penalty when placed away from home.
    std::vector<bid::Bundle> bundles;
    bundles.push_back(BundleForCluster(registry, profile.home_cluster,
                                       delta));
    int alternatives = 0;
    double cheapest_cost = BelievedClusterCost(
        registry, *ctx.learner, profile.home_cluster, delta);
    const double setup_penalty = 0.02 * profile.relocation_cost;
    const std::size_t home = HomeIndex(registry, profile);
    ClusterRanking ranking(registry, *ctx.learner, ctx.placement_penalty,
                           delta);
    while (const std::optional<std::size_t> c = ranking.Next()) {
      if (*c == home) continue;
      if (!FitsFreeCapacity(*ctx.view, *c, delta)) continue;
      const double cost =
          BelievedClusterCost(registry, *ctx.learner, *c, delta) +
          setup_penalty;
      bundles.push_back(BundleForCluster(registry, *c, delta));
      cheapest_cost = std::min(cheapest_cost, cost);
      if (++alternatives >= 3) break;
    }

    // Bid the believed cost plus a safety markup (§V.C: reserve prices
    // associated with bids track believed market prices with a shrinking
    // cushion). The team's private value caps the limit: when even the
    // believed price exceeds the value, the team sits out.
    const double markup = ctx.learner->Markup();
    const double noise = ctx.rng->Uniform(0.97, 1.03);
    const double value = cheapest_cost * profile.value_multiplier;
    double limit =
        std::min(cheapest_cost * (1.0 + markup) * noise, value);
    limit = ClampLimit(limit, ctx.view->budget);
    if (limit <= 0.0) return {};

    bid::Bid bid;
    bid.name = profile.name + "/grow";
    bid.bundles = std::move(bundles);
    bid.limit = limit;
    return {std::move(bid)};
  }

  std::string_view Name() const override { return "truthful-growth"; }
};

class PremiumStickyStrategy final : public Strategy {
 public:
  std::vector<bid::Bid> MakeBids(const StrategyContext& ctx) override {
    const TeamProfile& profile = *ctx.profile;
    const cluster::TaskShape delta = GrowthDelta(profile);
    const PoolRegistry& registry = *ctx.view->registry;

    // Home cluster only: this team's engineering cost of moving is so
    // high it pays whatever the home pool asks.
    const double believed = BelievedClusterCost(
        registry, *ctx.learner, profile.home_cluster, delta);
    const double markup = ctx.learner->Markup();
    // A sticky surcharge on top of the learning markup that never fully
    // decays — the persistent high-percentile bid outliers of Figure 7.
    const double sticky = ctx.rng->Uniform(0.50, 1.10);
    const double ceiling =
        believed * profile.value_multiplier * 1.5;  // Deep pockets.
    const double limit = ClampLimit(
        std::min(believed * (1.0 + markup + sticky), ceiling),
        ctx.view->budget);
    if (limit <= 0.0) return {};

    bid::Bid bid;
    bid.name = profile.name + "/grow-home";
    bid.bundles = {
        BundleForCluster(registry, profile.home_cluster, delta)};
    bid.limit = limit;
    return {std::move(bid)};
  }

  std::string_view Name() const override { return "premium-sticky"; }
};

class OpportunistMoverStrategy final : public Strategy {
 public:
  std::vector<bid::Bid> MakeBids(const StrategyContext& ctx) override {
    const TeamProfile& profile = *ctx.profile;
    const PoolRegistry& registry = *ctx.view->registry;

    // Sell a slice of the home footprint, rebuy the same slice in the
    // believed-cheapest cold cluster — if the believed saving clears the
    // relocation cost.
    const cluster::TaskShape slice = profile.footprint * 0.5;
    if (slice.cpu < 1.0) return {};

    const double home_value = BelievedClusterCost(
        registry, *ctx.learner, profile.home_cluster, slice);
    const std::size_t home = HomeIndex(registry, profile);
    std::size_t best = kNoCluster;
    double best_cost = std::numeric_limits<double>::infinity();
    double best_ranked = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < registry.Clusters().size(); ++c) {
      if (c == home) continue;
      if (!FitsFreeCapacity(*ctx.view, c, slice)) continue;
      // Rank destinations with the placement-failure factor but keep the
      // raw believed cost for the relocation gate and the bid limit (a
      // distrusted cluster should lose the ranking, not inflate what the
      // team is willing to pay elsewhere).
      const double penalty =
          ClusterPlacementPenalty(registry, ctx.placement_penalty, c);
      if (penalty >= kPlacementPenaltyAvoid) continue;
      const double cost =
          BelievedClusterCost(registry, *ctx.learner, c, slice);
      const double ranked = cost * (1.0 + kPlacementPenaltyWeight * penalty);
      if (ranked < best_ranked) {
        best_ranked = ranked;
        best_cost = cost;
        best = c;
      }
    }
    if (best == kNoCluster) return {};
    if (home_value - best_cost < profile.relocation_cost) {
      // The spread does not pay for the reconfiguration work; fall back
      // to growing like a truthful bidder would.
      return TruthfulGrowthStrategy().MakeBids(ctx);
    }

    std::vector<bid::Bid> bids;

    // Offer: sell the home slice at slightly below its believed market
    // value — enough discount to clear, tightening as beliefs converge
    // (the §V.C adaptation applies to asks as much as to bids).
    bid::Bid offer;
    offer.name = profile.name + "/vacate";
    offer.bundles = {
        -BundleForCluster(registry, profile.home_cluster, slice)};
    offer.limit =
        -std::max(home_value * ctx.rng->Uniform(0.80, 0.95), 1.0);
    bids.push_back(std::move(offer));

    // Bid: rebuy in the cold cluster (with a couple of fallbacks).
    bid::Bid rebuy;
    rebuy.name = profile.name + "/relocate";
    rebuy.bundles = {BundleForCluster(registry, best, slice)};
    int alternatives = 0;
    ClusterRanking ranking(registry, *ctx.learner, ctx.placement_penalty,
                           slice);
    while (const std::optional<std::size_t> c = ranking.Next()) {
      if (*c == home || *c == best) continue;
      if (!FitsFreeCapacity(*ctx.view, *c, slice)) continue;
      rebuy.bundles.push_back(BundleForCluster(registry, *c, slice));
      if (++alternatives >= 2) break;
    }
    const double markup = ctx.learner->Markup();
    rebuy.limit = ClampLimit(
        std::min(best_cost * (1.0 + markup),
                 best_cost * profile.value_multiplier),
        ctx.view->budget);
    if (rebuy.limit > 0.0) bids.push_back(std::move(rebuy));
    return bids;
  }

  std::string_view Name() const override { return "opportunist-mover"; }
};

class LowballSellerStrategy final : public Strategy {
 public:
  std::vector<bid::Bid> MakeBids(const StrategyContext& ctx) override {
    const TeamProfile& profile = *ctx.profile;
    const PoolRegistry& registry = *ctx.view->registry;

    // Selling only pays where capacity is scarce: when the home cluster
    // is not congested there is no premium to harvest, so sit out (the
    // paper's offers concentrate in overutilized clusters, Fig. 7).
    const auto home_cpu =
        registry.Find(PoolKey{profile.home_cluster, ResourceKind::kCpu});
    if (home_cpu.has_value() &&
        ctx.view->utilization[*home_cpu] < 0.45) {
      return {};
    }

    // Shrink 30 % of the footprint. §V.C: "in some auctions a number of
    // sellers will enter very low prices confident that there will be
    // ample competition and that the final market price will be fair" —
    // so this seller intermittently asks a token price (which spikes the
    // mean premium γ) and otherwise asks near believed value.
    const cluster::TaskShape slice = profile.footprint * 0.3;
    if (slice.cpu < 1.0) return {};
    bid::Bid offer;
    offer.name = profile.name + "/shrink";
    offer.bundles = {
        -BundleForCluster(registry, profile.home_cluster, slice)};
    if (ctx.rng->Bernoulli(0.4)) {
      offer.limit = -ctx.rng->Uniform(0.5, 2.0);  // Nearly free.
    } else {
      const double believed = BelievedClusterCost(
          registry, *ctx.learner, profile.home_cluster, slice);
      offer.limit = -std::max(believed * ctx.rng->Uniform(0.75, 0.92),
                              1.0);
    }
    return {std::move(offer)};
  }

  std::string_view Name() const override { return "lowball-seller"; }
};

class ArbitrageurStrategy final : public Strategy {
 public:
  std::vector<bid::Bid> MakeBids(const StrategyContext& ctx) override {
    const TeamProfile& profile = *ctx.profile;
    const PoolRegistry& registry = *ctx.view->registry;
    std::vector<double>& holdings = *ctx.holdings;
    holdings.resize(registry.size(), 0.0);

    std::vector<bid::Bid> bids;

    // Resell warehoused holdings where the reserve already exceeds the
    // believed price paid (margin locked in by the uniform price).
    bid::Bundle sell_bundle;
    {
      std::vector<bid::BundleItem> items;
      for (PoolId r = 0; r < registry.size(); ++r) {
        if (holdings[r] <= 0.0) continue;
        if (ctx.view->reserve_prices[r] >
            ctx.learner->Belief(r) * 1.10) {
          items.push_back(bid::BundleItem{r, -holdings[r]});
        }
      }
      sell_bundle = bid::Bundle(std::move(items));
    }
    if (!sell_bundle.Empty()) {
      bid::Bid sell;
      sell.name = profile.name + "/arb-sell";
      sell.bundles = {sell_bundle};
      // Ask just under believed value: the margin was locked in at
      // purchase; underselling the belief only risks the uniform price.
      const double believed_value =
          -sell_bundle.Dot(ctx.learner->beliefs());
      sell.limit = -std::max(believed_value * 0.9, 1.0);
      bids.push_back(std::move(sell));
    }

    // Buy the pool with the biggest believed discount to reserve: where
    // the operator's congestion weighting marked capacity down hardest.
    PoolId best_pool = kInvalidPool;
    double best_discount = 0.0;
    for (PoolId r = 0; r < registry.size(); ++r) {
      if (ctx.view->free_capacity[r] <= 0.0) continue;
      const double belief = ctx.learner->Belief(r);
      if (belief <= 0.0) continue;
      const double discount =
          (belief - ctx.view->reserve_prices[r]) / belief;
      if (discount > best_discount) {
        best_discount = discount;
        best_pool = r;
      }
    }
    if (best_pool != kInvalidPool && best_discount > 0.15) {
      const double qty =
          std::min(ctx.view->free_capacity[best_pool] * 0.10,
                   profile.footprint.cpu);
      if (qty >= 1.0) {
        bid::Bid buy;
        buy.name = profile.name + "/arb-buy";
        buy.bundles = {bid::Bundle({bid::BundleItem{best_pool, qty}})};
        buy.limit = ClampLimit(
            qty * ctx.learner->Belief(best_pool) * 0.95,
            ctx.view->budget);
        if (buy.limit > 0.0) bids.push_back(std::move(buy));
      }
    }
    return bids;
  }

  std::string_view Name() const override { return "arbitrageur"; }
};

}  // namespace

double ClusterPlacementPenalty(const PoolRegistry& registry,
                               const std::vector<double>* penalty,
                               std::size_t cluster) {
  if (penalty == nullptr || penalty->empty()) return 0.0;
  double worst = 0.0;
  for (ResourceKind kind : kAllResourceKinds) {
    const PoolId id = registry.PoolOf(cluster, kind);
    if (id == kInvalidPool || id >= penalty->size()) continue;
    worst = std::max(worst, (*penalty)[id]);
  }
  return worst;
}

double ClusterPlacementPenalty(const PoolRegistry& registry,
                               const std::vector<double>* penalty,
                               const std::string& cluster) {
  const std::optional<std::size_t> index = registry.ClusterIndex(cluster);
  if (!index.has_value()) return 0.0;
  return ClusterPlacementPenalty(registry, penalty, *index);
}

bool IsArbitrageBidName(std::string_view bid_name) {
  return bid_name.find("/arb-") != std::string_view::npos;
}

namespace {

/// TradedPool's failure branch, out of line so the lookup inlines.
[[gnu::cold]] void CheckTradedPool(const PoolRegistry& registry,
                                   std::size_t cluster, ResourceKind kind,
                                   PoolId id) {
  PM_CHECK_MSG(id != kInvalidPool, "cluster '" << registry.Clusters()[cluster]
                                               << "' missing pool for kind "
                                               << pm::ToString(kind));
}

/// The pool of (cluster, kind) for a kind the caller trades in; the
/// cluster must have one.
PoolId TradedPool(const PoolRegistry& registry, std::size_t cluster,
                  ResourceKind kind) {
  const PoolId id = registry.PoolOf(cluster, kind);
  if (id == kInvalidPool) [[unlikely]] {
    CheckTradedPool(registry, cluster, kind, id);
  }
  return id;
}

/// The terms of a believed cost: `delta`'s nonzero components, in
/// kAllResourceKinds order. A ranking reads them once, not per cluster.
struct CostTerms {
  explicit CostTerms(const cluster::TaskShape& delta) {
    for (ResourceKind kind : kAllResourceKinds) {
      const double qty = delta.Of(kind);
      if (qty == 0.0) continue;
      kinds[size] = kind;
      qtys[size++] = qty;
    }
  }

  std::array<ResourceKind, kNumResourceKinds> kinds{};
  std::array<double, kNumResourceKinds> qtys{};
  std::size_t size = 0;
};

/// Σ qty · belief of `cluster`'s pools over the terms, in their order.
double TermsCost(const PoolRegistry& registry, const PriceLearner& learner,
                 std::size_t cluster, const CostTerms& terms) {
  double cost = 0.0;
  for (std::size_t t = 0; t < terms.size; ++t) {
    cost += terms.qtys[t] *
            learner.Belief(TradedPool(registry, cluster, terms.kinds[t]));
  }
  return cost;
}

/// The cluster index of a named cluster the caller trades in.
std::size_t TradedCluster(const PoolRegistry& registry,
                          const std::string& cluster) {
  const std::optional<std::size_t> index = registry.ClusterIndex(cluster);
  PM_CHECK_MSG(index.has_value(), "cluster '" << cluster
                                              << "' has no pools");
  return *index;
}

}  // namespace

ClusterRanking::ClusterRanking(const PoolRegistry& registry,
                               const PriceLearner& learner,
                               const std::vector<double>* placement_penalty,
                               const cluster::TaskShape& delta)
    : names_(&registry.Clusters()) {
  const CostTerms terms(delta);
  const std::size_t num_clusters = names_->size();
  costs_.resize(num_clusters);
  heap_.reserve(num_clusters);
  for (std::size_t c = 0; c < num_clusters; ++c) {
    const double penalty =
        ClusterPlacementPenalty(registry, placement_penalty, c);
    if (penalty >= kPlacementPenaltyAvoid) continue;
    costs_[c] = TermsCost(registry, learner, c, terms) *
                (1.0 + kPlacementPenaltyWeight * penalty);
    heap_.push_back(c);
  }
  std::make_heap(heap_.begin(), heap_.end(),
                 [this](std::size_t a, std::size_t b) { return After(a, b); });
}

bool ClusterRanking::After(std::size_t a, std::size_t b) const {
  // Cost, then name: the lexicographic order of (cost, name) pairs.
  if (costs_[b] < costs_[a]) return true;
  if (costs_[a] < costs_[b]) return false;
  return (*names_)[b] < (*names_)[a];
}

std::optional<std::size_t> ClusterRanking::Next() {
  if (heap_.empty()) return std::nullopt;
  std::pop_heap(heap_.begin(), heap_.end(),
                [this](std::size_t a, std::size_t b) { return After(a, b); });
  const std::size_t c = heap_.back();
  heap_.pop_back();
  return c;
}

bid::Bundle BundleForCluster(const PoolRegistry& registry,
                             std::size_t cluster,
                             const cluster::TaskShape& delta) {
  std::vector<bid::BundleItem> items;
  for (ResourceKind kind : kAllResourceKinds) {
    const double qty = delta.Of(kind);
    if (qty == 0.0) continue;
    items.push_back(bid::BundleItem{TradedPool(registry, cluster, kind), qty});
  }
  return bid::Bundle(std::move(items));
}

bid::Bundle BundleForCluster(const PoolRegistry& registry,
                             const std::string& cluster,
                             const cluster::TaskShape& delta) {
  return BundleForCluster(registry, TradedCluster(registry, cluster), delta);
}

double BelievedClusterCost(const PoolRegistry& registry,
                           const PriceLearner& learner, std::size_t cluster,
                           const cluster::TaskShape& delta) {
  return TermsCost(registry, learner, cluster, CostTerms(delta));
}

double BelievedClusterCost(const PoolRegistry& registry,
                           const PriceLearner& learner,
                           const std::string& cluster,
                           const cluster::TaskShape& delta) {
  return BelievedClusterCost(registry, learner,
                             TradedCluster(registry, cluster), delta);
}

std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kTruthfulGrowth:
      return std::make_unique<TruthfulGrowthStrategy>();
    case StrategyKind::kPremiumSticky:
      return std::make_unique<PremiumStickyStrategy>();
    case StrategyKind::kOpportunistMover:
      return std::make_unique<OpportunistMoverStrategy>();
    case StrategyKind::kLowballSeller:
      return std::make_unique<LowballSellerStrategy>();
    case StrategyKind::kArbitrageur:
      return std::make_unique<ArbitrageurStrategy>();
  }
  PM_CHECK_MSG(false, "unknown strategy kind");
  return nullptr;
}

}  // namespace pm::agents
