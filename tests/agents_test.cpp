// Tests for pm::agents: price learning, bidding strategies, workload
// generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "agents/strategy.h"
#include "agents/team.h"
#include "agents/workload_gen.h"
#include "common/check.h"
#include "common/rng.h"

namespace pm::agents {
namespace {

// --------------------------------------------------------------- learning --

TEST(PriceLearnerTest, BeliefsMoveTowardObservations) {
  PriceLearner learner({10.0, 10.0}, 0.5, 0.5, 0.9);
  const std::vector<double> observed = {20.0, 6.0};
  learner.Observe(observed);
  EXPECT_NEAR(learner.Belief(0), 15.0, 1e-12);
  EXPECT_NEAR(learner.Belief(1), 8.0, 1e-12);
}

TEST(PriceLearnerTest, RepeatedObservationConverges) {
  PriceLearner learner({100.0}, 0.5, 0.5, 0.9);
  const std::vector<double> market = {10.0};
  for (int i = 0; i < 30; ++i) learner.Observe(market);
  EXPECT_NEAR(learner.Belief(0), 10.0, 1e-3);
  EXPECT_EQ(learner.ObservationCount(), 30);
}

TEST(PriceLearnerTest, MarkupDecaysGeometrically) {
  PriceLearner learner({1.0}, 0.5, 0.8, 0.5);
  EXPECT_DOUBLE_EQ(learner.Markup(), 0.8);
  const std::vector<double> p = {1.0};
  learner.Observe(p);
  EXPECT_DOUBLE_EQ(learner.Markup(), 0.4);
  learner.Observe(p);
  EXPECT_DOUBLE_EQ(learner.Markup(), 0.2);
}

TEST(PriceLearnerTest, BelievedCostSumsItems) {
  PriceLearner learner({2.0, 3.0, 5.0}, 0.5, 0.0, 1.0);
  const std::vector<std::size_t> pools = {0, 2};
  const std::vector<double> qtys = {4.0, 2.0};
  EXPECT_DOUBLE_EQ(learner.BelievedCost(pools, qtys), 18.0);
}

TEST(PriceLearnerTest, ValidatesArguments) {
  EXPECT_THROW(PriceLearner({}, 0.5, 0.5, 0.9), pm::CheckFailure);
  EXPECT_THROW(PriceLearner({1.0}, 0.0, 0.5, 0.9), pm::CheckFailure);
  EXPECT_THROW(PriceLearner({1.0}, 0.5, -0.1, 0.9), pm::CheckFailure);
  PriceLearner learner({1.0}, 0.5, 0.5, 0.9);
  const std::vector<double> wrong_size = {1.0, 2.0};
  EXPECT_THROW(learner.Observe(wrong_size), pm::CheckFailure);
  EXPECT_THROW(learner.Belief(5), pm::CheckFailure);
}

// ------------------------------------------------------------- strategies --

/// Test harness: a 3-cluster world with a hot home cluster.
struct StrategyFixture {
  PoolRegistry registry;
  std::vector<double> reserve;
  std::vector<double> utilization;
  std::vector<double> free_capacity;

  StrategyFixture() {
    // Pools: hot (0,1,2), mid (3,4,5), cold (6,7,8).
    for (const char* name : {"hot", "mid", "cold"}) {
      for (ResourceKind kind : kAllResourceKinds) {
        registry.Intern(name, kind);
      }
    }
    // Hot cluster: expensive reserves, no free room.
    reserve = {20.0, 3.0, 1.6, 10.0, 1.5, 0.8, 5.0, 0.75, 0.4};
    utilization = {0.95, 0.95, 0.95, 0.5, 0.5, 0.5, 0.1, 0.1, 0.1};
    free_capacity = {50, 200, 25, 500, 2000, 250, 900, 3600, 450};
  }

  MarketView View(double budget = 1e6) const {
    MarketView view;
    view.registry = &registry;
    view.reserve_prices = reserve;
    view.utilization = utilization;
    view.free_capacity = free_capacity;
    view.budget = budget;
    view.auction_index = 0;
    return view;
  }

  TeamProfile Profile(StrategyKind kind) const {
    TeamProfile p;
    p.name = "team-x";
    p.home_cluster = "hot";
    p.footprint = {40.0, 160.0, 20.0};
    p.growth_rate = 0.1;
    p.relocation_cost = 50.0;
    p.value_multiplier = 2.0;
    p.strategy = kind;
    return p;
  }
};

TEST(StrategyHelperTest, BundleForClusterMapsKinds) {
  StrategyFixture fx;
  const bid::Bundle b = BundleForCluster(fx.registry, "mid",
                                         {4.0, 16.0, 2.0});
  EXPECT_EQ(b.Size(), 3u);
  const auto cpu = fx.registry.Find(PoolKey{"mid", ResourceKind::kCpu});
  EXPECT_DOUBLE_EQ(b.QuantityOf(*cpu), 4.0);
}

TEST(StrategyHelperTest, BundleSkipsZeroComponents) {
  StrategyFixture fx;
  const bid::Bundle b =
      BundleForCluster(fx.registry, "mid", {4.0, 0.0, 0.0});
  EXPECT_EQ(b.Size(), 1u);
}

TEST(StrategyHelperTest, BelievedClusterCostUsesBeliefs) {
  StrategyFixture fx;
  PriceLearner learner(fx.reserve, 0.5, 0.0, 1.0);
  const double cost = BelievedClusterCost(fx.registry, learner, "cold",
                                          {10.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(cost, 50.0);
}

/// The ranking oracle: (cost, name) pairs built from the by-name helpers,
/// sorted lexicographically, mapped to cluster indices.
std::vector<std::size_t> NaiveRanking(const PoolRegistry& registry,
                                      const PriceLearner& learner,
                                      const std::vector<double>* penalty,
                                      const cluster::TaskShape& delta) {
  std::vector<std::pair<double, std::string>> ranked;
  for (const std::string& name : registry.Clusters()) {
    const double p = ClusterPlacementPenalty(registry, penalty, name);
    if (p >= kPlacementPenaltyAvoid) continue;
    ranked.emplace_back(BelievedClusterCost(registry, learner, name, delta) *
                            (1.0 + kPlacementPenaltyWeight * p),
                        name);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::size_t> out;
  for (const auto& [cost, name] : ranked) {
    out.push_back(*registry.ClusterIndex(name));
  }
  return out;
}

/// The whole lazy ranking as a vector: ClusterRanking drained.
std::vector<std::size_t> DrainRanking(const PoolRegistry& registry,
                                      const PriceLearner& learner,
                                      const std::vector<double>* penalty,
                                      const cluster::TaskShape& delta) {
  ClusterRanking ranking(registry, learner, penalty, delta);
  std::vector<std::size_t> out;
  while (const std::optional<std::size_t> c = ranking.Next()) {
    out.push_back(*c);
  }
  EXPECT_FALSE(ranking.Next().has_value()) << "a drained ranking refilled";
  return out;
}

/// `n` clusters interned out of lexicographic name order: index c is
/// named "c<7c mod n>", distinct for every n not divisible by 7.
PoolRegistry ShuffledRegistry(int n) {
  PoolRegistry registry;
  for (int c = 0; c < n; ++c) {
    const std::string name = "c" + std::to_string((c * 7) % n);
    for (ResourceKind kind : kAllResourceKinds) registry.Intern(name, kind);
  }
  return registry;
}

TEST(StrategyHelperTest, RankingBreaksCostTiesByName) {
  // Interned out of name order; delta/alpha/bravo tie on cost.
  PoolRegistry registry;
  for (const char* name : {"delta", "alpha", "charlie", "bravo", "echo"}) {
    for (ResourceKind kind : kAllResourceKinds) registry.Intern(name, kind);
  }
  std::vector<double> beliefs = {2.0, 1.0, 1.0,   // delta
                                 2.0, 1.0, 1.0,   // alpha
                                 1.0, 1.0, 1.0,   // charlie: cheapest
                                 2.0, 1.0, 1.0,   // bravo
                                 3.0, 1.0, 1.0};  // echo: dearest
  const PriceLearner learner(beliefs, 0.5, 0.0, 1.0);
  const cluster::TaskShape delta{4.0, 8.0, 1.0};
  const std::vector<std::size_t> ranked =
      DrainRanking(registry, learner, nullptr, delta);
  // charlie, then alpha < bravo < delta by name, then echo.
  EXPECT_EQ(ranked, (std::vector<std::size_t>{2, 1, 3, 0, 4}));
  EXPECT_EQ(ranked, NaiveRanking(registry, learner, nullptr, delta));

  // Memory: echo is avoided outright, charlie's penalty makes it tie-free
  // but dearer than the tied trio.
  std::vector<double> penalty(registry.size(), 0.0);
  penalty[*registry.Find(PoolKey{"echo", ResourceKind::kRam})] = 0.7;
  penalty[*registry.Find(PoolKey{"charlie", ResourceKind::kCpu})] = 0.3;
  const std::vector<std::size_t> with_memory =
      DrainRanking(registry, learner, &penalty, delta);
  EXPECT_EQ(with_memory, (std::vector<std::size_t>{1, 3, 0, 2}));
  EXPECT_EQ(with_memory, NaiveRanking(registry, learner, &penalty, delta));
}

TEST(StrategyHelperTest, RankingMatchesNaiveSortOnRandomTies) {
  RandomStream rng(4242);
  const double levels[] = {0.5, 1.0, 1.5};
  const double penalties[] = {0.0, 0.0, 0.2, kPlacementPenaltyAvoid, 0.9};
  int dropped = 0;
  for (const int num_clusters : {0, 1, 24, 200}) {
    const PoolRegistry registry = ShuffledRegistry(num_clusters);
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<double> beliefs(std::max<std::size_t>(registry.size(), 1));
      for (double& b : beliefs) b = levels[rng.UniformInt(0, 2)];
      const PriceLearner learner(beliefs, 0.5, 0.0, 1.0);
      // Memory: none, empty, one entry per pool, half the pools.
      const int memory_kind = trial % 4;
      std::vector<double> penalty;
      if (memory_kind >= 2) {
        penalty.resize(memory_kind == 2 ? registry.size()
                                        : registry.size() / 2);
        for (double& p : penalty) p = penalties[rng.UniformInt(0, 4)];
      }
      const auto* memory = memory_kind == 0 ? nullptr : &penalty;
      const cluster::TaskShape delta{
          static_cast<double>(rng.UniformInt(0, 3)), 2.0,
          static_cast<double>(rng.UniformInt(0, 1))};
      const std::vector<std::size_t> ranked =
          DrainRanking(registry, learner, memory, delta);
      EXPECT_EQ(ranked, NaiveRanking(registry, learner, memory, delta))
          << num_clusters << " clusters, trial " << trial;
      dropped += static_cast<int>(registry.Clusters().size() - ranked.size());
    }
  }
  EXPECT_GT(dropped, 0);
}

TEST(StrategyHelperTest, RankingKeepsPoolAndBeliefChecks) {
  PoolRegistry registry;
  for (ResourceKind kind : kAllResourceKinds) registry.Intern("full", kind);
  registry.Intern("cpu-only", ResourceKind::kCpu);
  const PriceLearner learner(std::vector<double>(registry.size(), 1.0), 0.5,
                             0.0, 1.0);
  // A cpu-only shape ranks both clusters; one with ram needs a ram pool.
  EXPECT_EQ(DrainRanking(registry, learner, nullptr, {1.0, 0.0, 0.0}).size(),
            2u);
  try {
    ClusterRanking(registry, learner, nullptr, {1.0, 2.0, 0.0});
    ADD_FAILURE() << "a cluster missing a traded pool was ranked";
  } catch (const pm::CheckFailure& failure) {
    EXPECT_NE(failure.reason().find("'cpu-only' missing pool for kind"),
              std::string::npos)
        << failure.reason();
  }
  // A learner that tracks fewer pools than the registry holds.
  const PriceLearner short_learner({1.0, 1.0}, 0.5, 0.0, 1.0);
  try {
    ClusterRanking(registry, short_learner, nullptr, {1.0, 0.0, 0.0});
    ADD_FAILURE() << "a pool beyond the learner's beliefs was ranked";
  } catch (const pm::CheckFailure& failure) {
    EXPECT_NE(failure.reason().find("beyond beliefs of size 2"),
              std::string::npos)
        << failure.reason();
  }
}

// The two ranking strategies as they were written over the full sort:
// the oracle of StrategyTest.RankingStrategiesMatchFullSort.

cluster::TaskShape ReferenceGrowthDelta(const TeamProfile& profile) {
  cluster::TaskShape delta = profile.footprint * profile.growth_rate;
  delta.cpu = std::max(delta.cpu, 1.0);
  delta.ram_gb = std::max(delta.ram_gb, 2.0);
  delta.disk_tb = std::max(delta.disk_tb, 0.1);
  return delta;
}

bool ReferenceFits(const MarketView& view, std::size_t cluster,
                   const cluster::TaskShape& delta) {
  for (ResourceKind kind : kAllResourceKinds) {
    if (delta.Of(kind) <= 0.0) continue;
    const PoolId id = view.registry->PoolOf(cluster, kind);
    if (id == kInvalidPool || view.free_capacity[id] < delta.Of(kind)) {
      return false;
    }
  }
  return true;
}

std::vector<bid::Bid> ReferenceGrowthBids(const StrategyContext& ctx) {
  const TeamProfile& profile = *ctx.profile;
  const cluster::TaskShape delta = ReferenceGrowthDelta(profile);
  const PoolRegistry& registry = *ctx.view->registry;
  std::vector<bid::Bundle> bundles = {
      BundleForCluster(registry, profile.home_cluster, delta)};
  double cheapest_cost = BelievedClusterCost(registry, *ctx.learner,
                                             profile.home_cluster, delta);
  const std::size_t home = *registry.ClusterIndex(profile.home_cluster);
  int alternatives = 0;
  for (const std::size_t c :
       NaiveRanking(registry, *ctx.learner, ctx.placement_penalty, delta)) {
    if (c == home || !ReferenceFits(*ctx.view, c, delta)) continue;
    bundles.push_back(BundleForCluster(registry, c, delta));
    cheapest_cost = std::min(
        cheapest_cost, BelievedClusterCost(registry, *ctx.learner, c, delta) +
                           0.02 * profile.relocation_cost);
    if (++alternatives >= 3) break;
  }
  const double noise = ctx.rng->Uniform(0.97, 1.03);
  double limit =
      std::min(cheapest_cost * (1.0 + ctx.learner->Markup()) * noise,
               cheapest_cost * profile.value_multiplier);
  limit = std::min(limit, ctx.view->budget);
  if (limit <= 0.0) return {};
  bid::Bid bid;
  bid.name = profile.name + "/grow";
  bid.bundles = std::move(bundles);
  bid.limit = limit;
  return {std::move(bid)};
}

std::vector<bid::Bid> ReferenceMoverBids(const StrategyContext& ctx) {
  const TeamProfile& profile = *ctx.profile;
  const PoolRegistry& registry = *ctx.view->registry;
  const cluster::TaskShape slice = profile.footprint * 0.5;
  if (slice.cpu < 1.0) return {};
  const double home_value = BelievedClusterCost(
      registry, *ctx.learner, profile.home_cluster, slice);
  const std::size_t home = *registry.ClusterIndex(profile.home_cluster);
  std::optional<std::size_t> best;
  double best_cost = 0.0;
  double best_ranked = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < registry.Clusters().size(); ++c) {
    if (c == home || !ReferenceFits(*ctx.view, c, slice)) continue;
    const double penalty =
        ClusterPlacementPenalty(registry, ctx.placement_penalty, c);
    if (penalty >= kPlacementPenaltyAvoid) continue;
    const double cost = BelievedClusterCost(registry, *ctx.learner, c, slice);
    const double ranked = cost * (1.0 + kPlacementPenaltyWeight * penalty);
    if (ranked < best_ranked) {
      best_ranked = ranked;
      best_cost = cost;
      best = c;
    }
  }
  if (!best.has_value()) return {};
  if (home_value - best_cost < profile.relocation_cost) {
    return ReferenceGrowthBids(ctx);
  }
  std::vector<bid::Bid> bids;
  bid::Bid offer;
  offer.name = profile.name + "/vacate";
  offer.bundles = {-BundleForCluster(registry, profile.home_cluster, slice)};
  offer.limit = -std::max(home_value * ctx.rng->Uniform(0.80, 0.95), 1.0);
  bids.push_back(std::move(offer));
  bid::Bid rebuy;
  rebuy.name = profile.name + "/relocate";
  rebuy.bundles = {BundleForCluster(registry, *best, slice)};
  int alternatives = 0;
  for (const std::size_t c :
       NaiveRanking(registry, *ctx.learner, ctx.placement_penalty, slice)) {
    if (c == home || c == *best || !ReferenceFits(*ctx.view, c, slice)) {
      continue;
    }
    rebuy.bundles.push_back(BundleForCluster(registry, c, slice));
    if (++alternatives >= 2) break;
  }
  rebuy.limit = std::min(std::min(best_cost * (1.0 + ctx.learner->Markup()),
                                  best_cost * profile.value_multiplier),
                         ctx.view->budget);
  if (rebuy.limit > 0.0) bids.push_back(std::move(rebuy));
  return bids;
}

TEST(StrategyTest, RankingStrategiesMatchFullSort) {
  RandomStream world_rng(77);
  const double levels[] = {0.5, 1.0, 1.5, 2.0};
  const double penalties[] = {0.0, 0.0, 0.0, 0.3, 0.7};
  int moved = 0;
  int grew = 0;
  int sat_out = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const PoolRegistry registry = ShuffledRegistry(40);
    std::vector<double> beliefs(registry.size());
    for (double& b : beliefs) b = levels[world_rng.UniformInt(0, 3)];
    // Every fourth world is too full for any relocation slice.
    const double room = trial % 4 == 3 ? 1.0 : 40.0;
    std::vector<double> free_capacity(registry.size());
    for (double& f : free_capacity) f = world_rng.Uniform(0.0, room);
    const std::vector<double> utilization(registry.size(), 0.5);
    std::vector<double> penalty(registry.size());
    for (double& p : penalty) p = penalties[world_rng.UniformInt(0, 4)];

    MarketView view;
    view.registry = &registry;
    view.reserve_prices = beliefs;
    view.utilization = utilization;
    view.free_capacity = free_capacity;
    view.budget = trial % 5 == 0 ? 20.0 : 1e6;

    TeamProfile profile;
    profile.name = "team-" + std::to_string(trial);
    profile.home_cluster =
        registry.Clusters()[world_rng.UniformInt(0, 39)];
    profile.footprint = {world_rng.Uniform(4.0, 60.0),
                         trial % 3 == 0 ? 0.0 : world_rng.Uniform(0.0, 60.0),
                         world_rng.Uniform(0.0, 20.0)};
    const double relocation_costs[] = {0.0, 5.0, 1e9};
    profile.relocation_cost = relocation_costs[trial % 3];
    profile.value_multiplier = 2.0;

    const std::uint64_t seed = 1000 + trial;
    for (const StrategyKind kind :
         {StrategyKind::kTruthfulGrowth, StrategyKind::kOpportunistMover}) {
      profile.strategy = kind;
      PriceLearner learner(beliefs, 0.5, 0.3, 0.9);
      PriceLearner reference_learner = learner;
      RandomStream rng(seed);
      RandomStream reference_rng(seed);
      std::vector<double> holdings;
      StrategyContext ctx;
      ctx.profile = &profile;
      ctx.view = &view;
      ctx.learner = &learner;
      ctx.rng = &rng;
      ctx.holdings = &holdings;
      ctx.placement_penalty = trial % 2 == 0 ? &penalty : nullptr;
      StrategyContext reference_ctx = ctx;
      reference_ctx.learner = &reference_learner;
      reference_ctx.rng = &reference_rng;

      const std::vector<bid::Bid> bids = MakeStrategy(kind)->MakeBids(ctx);
      const std::vector<bid::Bid> expected =
          kind == StrategyKind::kTruthfulGrowth
              ? ReferenceGrowthBids(reference_ctx)
              : ReferenceMoverBids(reference_ctx);
      ASSERT_EQ(bids.size(), expected.size()) << "trial " << trial;
      for (std::size_t b = 0; b < bids.size(); ++b) {
        EXPECT_EQ(bids[b].name, expected[b].name) << "trial " << trial;
        EXPECT_EQ(bids[b].limit, expected[b].limit) << "trial " << trial;
        EXPECT_EQ(bids[b].bundles, expected[b].bundles) << "trial " << trial;
      }
      if (kind == StrategyKind::kOpportunistMover) {
        if (bids.empty()) {
          ++sat_out;
        } else if (bids[0].name.ends_with("/vacate")) {
          ++moved;
        } else {
          ++grew;
        }
      }
    }
  }
  // Every mover branch ran: relocate, fall back to growth, sit out.
  EXPECT_GT(moved, 0);
  EXPECT_GT(grew, 0);
  EXPECT_GT(sat_out, 0);
}

TEST(StrategyTest, TruthfulGrowthOffersAlternatives) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kTruthfulGrowth), fx.reserve,
                  1);
  const auto bids = agent.MakeBids(fx.View());
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_GT(bids[0].limit, 0.0);
  // Home plus at least one believed-cheaper alternative (cold is much
  // cheaper and has room).
  EXPECT_GE(bids[0].bundles.size(), 2u);
}

TEST(StrategyTest, TruthfulGrowthRespectsBudget) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kTruthfulGrowth), fx.reserve,
                  1);
  const auto bids = agent.MakeBids(fx.View(/*budget=*/5.0));
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_LE(bids[0].limit, 5.0);
}

TEST(StrategyTest, PremiumStickyStaysHome) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kPremiumSticky), fx.reserve, 2);
  const auto bids = agent.MakeBids(fx.View());
  ASSERT_EQ(bids.size(), 1u);
  ASSERT_EQ(bids[0].bundles.size(), 1u);  // Home only, no alternatives.
  const auto hot_cpu = fx.registry.Find(PoolKey{"hot", ResourceKind::kCpu});
  EXPECT_GT(bids[0].bundles[0].QuantityOf(*hot_cpu), 0.0);
  // Pays a hefty premium over believed cost.
  PriceLearner fresh(fx.reserve, 0.5, 0.6, 0.35);
  const double believed = BelievedClusterCost(
      fx.registry, fresh, "hot",
      {4.0, 16.0, 2.0});
  EXPECT_GT(bids[0].limit, believed);
}

TEST(StrategyTest, OpportunistMoverSellsHomeAndRebuysCold) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kOpportunistMover), fx.reserve,
                  3);
  const auto bids = agent.MakeBids(fx.View());
  ASSERT_EQ(bids.size(), 2u);
  // One offer (negative limit, pure sell), one rebuy (positive limit).
  const bid::Bid* offer = nullptr;
  const bid::Bid* rebuy = nullptr;
  for (const auto& b : bids) {
    if (b.limit <= 0.0) {
      offer = &b;
    } else {
      rebuy = &b;
    }
  }
  ASSERT_NE(offer, nullptr);
  ASSERT_NE(rebuy, nullptr);
  EXPECT_EQ(bid::ClassifyBid(*offer), bid::BidSide::kSeller);
  EXPECT_EQ(bid::ClassifyBid(*rebuy), bid::BidSide::kBuyer);
  // The offer vacates the home cluster.
  const auto hot_cpu = fx.registry.Find(PoolKey{"hot", ResourceKind::kCpu});
  EXPECT_LT(offer->bundles[0].QuantityOf(*hot_cpu), 0.0);
}

TEST(StrategyTest, MoverFallsBackWhenSpreadTooSmall) {
  StrategyFixture fx;
  TeamProfile profile = fx.Profile(StrategyKind::kOpportunistMover);
  profile.relocation_cost = 1e9;  // Never worth moving.
  TeamAgent agent(std::move(profile), fx.reserve, 4);
  const auto bids = agent.MakeBids(fx.View());
  // Falls back to truthful growth: a single buy bid.
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_GT(bids[0].limit, 0.0);
}

TEST(StrategyTest, LowballSellerAsksTokenPrice) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kLowballSeller), fx.reserve, 5);
  const auto bids = agent.MakeBids(fx.View());
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_EQ(bid::ClassifyBid(bids[0]), bid::BidSide::kSeller);
  EXPECT_GE(bids[0].limit, -2.0);  // Token ask.
  EXPECT_LT(bids[0].limit, 0.0);
}

TEST(StrategyTest, ArbitrageurBuysDiscountedPools) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kArbitrageur), fx.reserve, 6);
  // Beliefs start at reserves → no discount → no buy.
  EXPECT_TRUE(agent.MakeBids(fx.View()).empty());
  // After observing much higher settled prices everywhere, the reserve
  // looks like a discount.
  std::vector<double> settled = fx.reserve;
  for (double& p : settled) p *= 2.0;
  agent.ObserveOutcome(settled, {});
  const auto bids = agent.MakeBids(fx.View());
  ASSERT_EQ(bids.size(), 1u);
  EXPECT_EQ(bid::ClassifyBid(bids[0]), bid::BidSide::kBuyer);
}

TEST(StrategyTest, ArbitrageurResellsHoldings) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kArbitrageur), fx.reserve, 7);
  agent.mutable_holdings().assign(fx.registry.size(), 0.0);
  agent.mutable_holdings()[6] = 100.0;  // Cold cpu warehoused.
  // Observe a crash in beliefs so that reserve >> belief → sell.
  std::vector<double> crash = fx.reserve;
  for (double& p : crash) p *= 0.3;
  agent.ObserveOutcome(crash, {});
  agent.ObserveOutcome(crash, {});
  const auto bids = agent.MakeBids(fx.View());
  bool has_sell = false;
  for (const auto& b : bids) {
    if (bid::ClassifyBid(b) == bid::BidSide::kSeller) has_sell = true;
  }
  EXPECT_TRUE(has_sell);
}

// ---------------------------------------------- placement feedback --

TEST(PlacementPenaltyTest, NoFeedbackLeavesMemoryEmpty) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kTruthfulGrowth), fx.reserve,
                  1);
  // Gate-off-shaped outcomes: won, but no placement fields.
  std::vector<BidOutcome> outcomes(2);
  outcomes[0].won = true;
  outcomes[0].payment = 12.0;
  agent.ObserveOutcome(fx.reserve, outcomes);
  EXPECT_TRUE(agent.placement_penalty().empty());
}

TEST(PlacementPenaltyTest, FailuresRaiseAndCleanAuctionsForgive) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kTruthfulGrowth), fx.reserve,
                  1);
  BidOutcome fail;
  fail.won = true;
  fail.awarded_units = 10.0;
  fail.placed_units = 0.0;
  fail.unplaced_pools = {6};
  agent.ObserveOutcome(fx.reserve, {fail});
  ASSERT_EQ(agent.placement_penalty().size(), fx.registry.size());
  EXPECT_DOUBLE_EQ(agent.placement_penalty()[6], kPlacementPenaltyStep);
  EXPECT_EQ(agent.placement_penalty()[0], 0.0);

  BidOutcome clean;
  clean.won = true;
  clean.awarded_units = 5.0;
  clean.placed_units = 5.0;
  agent.ObserveOutcome(fx.reserve, {clean});
  EXPECT_DOUBLE_EQ(agent.placement_penalty()[6],
                   kPlacementPenaltyStep * (1.0 - kPlacementPenaltyStep));

  // Chronic failure saturates (clamped at 1), never overshoots.
  for (int i = 0; i < 30; ++i) agent.ObserveOutcome(fx.reserve, {fail});
  EXPECT_GT(agent.placement_penalty()[6], 0.9);
  EXPECT_LE(agent.placement_penalty()[6], 1.0);
}

TEST(StrategyHelperTest, ClusterPlacementPenaltyTakesWorstKind) {
  StrategyFixture fx;
  std::vector<double> penalty(fx.registry.size(), 0.0);
  penalty[7] = 0.8;  // cold/ram.
  EXPECT_DOUBLE_EQ(
      ClusterPlacementPenalty(fx.registry, &penalty, "cold"), 0.8);
  EXPECT_DOUBLE_EQ(ClusterPlacementPenalty(fx.registry, &penalty, "mid"),
                   0.0);
  EXPECT_DOUBLE_EQ(ClusterPlacementPenalty(fx.registry, nullptr, "cold"),
                   0.0);
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(ClusterPlacementPenalty(fx.registry, &empty, "cold"),
                   0.0);
}

TEST(PlacementPenaltyTest, DistrustedClusterDropsOutOfGrowthBids) {
  StrategyFixture fx;
  TeamAgent agent(fx.Profile(StrategyKind::kTruthfulGrowth), fx.reserve,
                  1);
  const auto cold_cpu =
      fx.registry.Find(PoolKey{"cold", ResourceKind::kCpu});
  const auto mentions_cold = [&](const std::vector<bid::Bid>& bids) {
    for (const bid::Bid& b : bids) {
      for (const bid::Bundle& bundle : b.bundles) {
        if (bundle.QuantityOf(*cold_cpu) != 0.0) return true;
      }
    }
    return false;
  };
  // Baseline: cold is the cheapest alternative with room — bid on it.
  ASSERT_TRUE(mentions_cold(agent.MakeBids(fx.View())));

  // Three straight placement failures on cold's pools push its penalty
  // past the avoid bar (0.3 → 0.51 → 0.657 ≥ 0.6).
  BidOutcome fail;
  fail.won = true;
  fail.awarded_units = 10.0;
  fail.placed_units = 0.0;
  fail.unplaced_pools = {6, 7, 8};
  for (int i = 0; i < 3; ++i) agent.ObserveOutcome(fx.reserve, {fail});
  EXPECT_GE(agent.placement_penalty()[6], kPlacementPenaltyAvoid);
  EXPECT_FALSE(mentions_cold(agent.MakeBids(fx.View())));
}

TEST(StrategyTest, StrategyNamesRoundTrip) {
  for (StrategyKind kind :
       {StrategyKind::kTruthfulGrowth, StrategyKind::kPremiumSticky,
        StrategyKind::kOpportunistMover, StrategyKind::kLowballSeller,
        StrategyKind::kArbitrageur}) {
    EXPECT_EQ(MakeStrategy(kind)->Name(), ToString(kind));
  }
}

// ------------------------------------------------------------ workload gen --

TEST(WorkloadGenTest, GeneratesRequestedShape) {
  WorkloadConfig config;
  config.num_clusters = 8;
  config.num_teams = 20;
  config.min_machines_per_cluster = 10;
  config.max_machines_per_cluster = 20;
  config.seed = 7;
  const World world = GenerateWorld(config);
  EXPECT_EQ(world.fleet.NumClusters(), 8u);
  EXPECT_EQ(world.fleet.NumPools(), 24u);
  EXPECT_EQ(world.agents.size(), 20u);
  EXPECT_EQ(world.fixed_prices.size(), 24u);
  EXPECT_EQ(world.target_utilization.size(), 8u);
}

TEST(WorkloadGenTest, DeterministicInSeed) {
  WorkloadConfig config;
  config.num_clusters = 6;
  config.num_teams = 15;
  config.seed = 99;
  const World a = GenerateWorld(config);
  const World b = GenerateWorld(config);
  EXPECT_EQ(a.fleet.UtilizationVector(), b.fleet.UtilizationVector());
  ASSERT_EQ(a.agents.size(), b.agents.size());
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    EXPECT_EQ(a.agents[i].profile().name, b.agents[i].profile().name);
    EXPECT_EQ(a.agents[i].profile().home_cluster,
              b.agents[i].profile().home_cluster);
    EXPECT_EQ(a.agents[i].profile().footprint,
              b.agents[i].profile().footprint);
  }
}

TEST(WorkloadGenTest, DifferentSeedsDifferentWorlds) {
  WorkloadConfig config;
  config.num_clusters = 6;
  config.num_teams = 15;
  config.seed = 1;
  const World a = GenerateWorld(config);
  config.seed = 2;
  const World b = GenerateWorld(config);
  EXPECT_NE(a.fleet.UtilizationVector(), b.fleet.UtilizationVector());
}

TEST(WorkloadGenTest, UtilizationSpreadIsWide) {
  WorkloadConfig config;
  config.num_clusters = 12;
  config.num_teams = 60;
  config.seed = 5;
  const World world = GenerateWorld(config);
  double lo = 1.0, hi = 0.0;
  for (const std::string& name : world.fleet.ClusterNames()) {
    const double u =
        world.fleet.ClusterByName(name).Utilization(ResourceKind::kCpu);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_LT(lo, 0.35);  // Some cold clusters.
  EXPECT_GT(hi, 0.70);  // Some hot clusters.
}

TEST(WorkloadGenTest, EveryTeamHasViableProfile) {
  WorkloadConfig config;
  config.num_clusters = 6;
  config.num_teams = 30;
  config.seed = 11;
  const World world = GenerateWorld(config);
  for (const TeamAgent& agent : world.agents) {
    const TeamProfile& p = agent.profile();
    EXPECT_FALSE(p.name.empty());
    EXPECT_TRUE(world.fleet.HasCluster(p.home_cluster));
    EXPECT_GE(p.footprint.cpu, 1.0);
    EXPECT_GT(p.relocation_cost, 0.0);
    EXPECT_GE(p.value_multiplier, 1.0);
  }
}

TEST(WorkloadGenTest, FixedPricesMatchUnitCosts) {
  WorkloadConfig config;
  config.num_clusters = 3;
  config.num_teams = 5;
  config.seed = 3;
  const World world = GenerateWorld(config);
  for (PoolId r = 0; r < world.fleet.NumPools(); ++r) {
    const ResourceKind kind = world.fleet.registry().KeyOf(r).kind;
    EXPECT_DOUBLE_EQ(world.fixed_prices[r],
                     config.unit_costs.Of(kind));
  }
}

TEST(WorkloadGenTest, StrategyMixRoughlyMatchesFractions) {
  WorkloadConfig config;
  config.num_clusters = 10;
  config.num_teams = 400;
  config.seed = 23;
  const World world = GenerateWorld(config);
  int premium = 0, movers = 0;
  for (const TeamAgent& agent : world.agents) {
    if (agent.profile().strategy == StrategyKind::kPremiumSticky) {
      ++premium;
    }
    if (agent.profile().strategy == StrategyKind::kOpportunistMover) {
      ++movers;
    }
  }
  EXPECT_NEAR(premium / 400.0, config.frac_premium_sticky, 0.06);
  EXPECT_NEAR(movers / 400.0, config.frac_opportunist_mover, 0.06);
}

TEST(WorkloadGenTest, InvalidConfigThrows) {
  WorkloadConfig config;
  config.num_clusters = 1;
  EXPECT_THROW(GenerateWorld(config), pm::CheckFailure);
}

}  // namespace
}  // namespace pm::agents
