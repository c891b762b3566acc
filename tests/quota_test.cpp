// Tests for the §I quota registry — entitlements granted by the market,
// usage charged by placement — and its integration with Market and the
// churn admission path.
#include <gtest/gtest.h>

#include "agents/workload_gen.h"
#include "cluster/quota.h"
#include "common/check.h"
#include "common/rng.h"
#include "exchange/churn.h"
#include "exchange/market.h"

namespace pm::cluster {
namespace {

PoolRegistry ThreePoolRegistry() {
  PoolRegistry reg;
  for (ResourceKind kind : kAllResourceKinds) reg.Intern("c1", kind);
  return reg;
}

TEST(QuotaTableTest, GrantAndEntitlement) {
  QuotaTable quota;
  EXPECT_EQ(quota.EntitlementOf("t", 0), 0.0);
  quota.Grant("t", 0, 10.0);
  quota.Grant("t", 0, 5.0);
  EXPECT_DOUBLE_EQ(quota.EntitlementOf("t", 0), 15.0);
  EXPECT_EQ(quota.EntitlementOf("t", 1), 0.0);
  EXPECT_EQ(quota.EntitlementOf("other", 0), 0.0);
}

TEST(QuotaTableTest, ReleaseClampsAtZero) {
  QuotaTable quota;
  quota.Grant("t", 0, 10.0);
  quota.Release("t", 0, 4.0);
  EXPECT_DOUBLE_EQ(quota.EntitlementOf("t", 0), 6.0);
  quota.Release("t", 0, 100.0);
  EXPECT_DOUBLE_EQ(quota.EntitlementOf("t", 0), 0.0);
}

TEST(QuotaTableTest, NegativeAmountsThrow) {
  QuotaTable quota;
  EXPECT_THROW(quota.Grant("t", 0, -1.0), CheckFailure);
  EXPECT_THROW(quota.Release("t", 0, -1.0), CheckFailure);
}

TEST(QuotaTableTest, ChargeRefundTracksUsage) {
  const PoolRegistry reg = ThreePoolRegistry();
  QuotaTable quota;
  const TaskShape demand{4.0, 16.0, 2.0};
  quota.Charge("t", reg, "c1", demand);
  const auto cpu = reg.Find(PoolKey{"c1", ResourceKind::kCpu});
  const auto ram = reg.Find(PoolKey{"c1", ResourceKind::kRam});
  EXPECT_DOUBLE_EQ(quota.UsageOf("t", *cpu), 4.0);
  EXPECT_DOUBLE_EQ(quota.UsageOf("t", *ram), 16.0);
  quota.Refund("t", reg, "c1", demand);
  EXPECT_DOUBLE_EQ(quota.UsageOf("t", *cpu), 0.0);
  // Refund clamps at zero.
  quota.Refund("t", reg, "c1", demand);
  EXPECT_DOUBLE_EQ(quota.UsageOf("t", *cpu), 0.0);
}

TEST(QuotaTableTest, HeadroomAndWouldExceed) {
  const PoolRegistry reg = ThreePoolRegistry();
  QuotaTable quota;
  const auto cpu = reg.Find(PoolKey{"c1", ResourceKind::kCpu});
  const auto ram = reg.Find(PoolKey{"c1", ResourceKind::kRam});
  const auto disk = reg.Find(PoolKey{"c1", ResourceKind::kDisk});
  quota.Grant("t", *cpu, 10.0);
  quota.Grant("t", *ram, 40.0);
  quota.Grant("t", *disk, 5.0);
  EXPECT_FALSE(quota.WouldExceed("t", reg, "c1", {10.0, 40.0, 5.0}));
  EXPECT_TRUE(quota.WouldExceed("t", reg, "c1", {10.1, 1.0, 1.0}));
  quota.Charge("t", reg, "c1", {6.0, 10.0, 1.0});
  EXPECT_DOUBLE_EQ(quota.HeadroomOf("t", *cpu), 4.0);
  EXPECT_TRUE(quota.WouldExceed("t", reg, "c1", {5.0, 1.0, 1.0}));
  EXPECT_FALSE(quota.WouldExceed("t", reg, "c1", {4.0, 1.0, 1.0}));
}

TEST(QuotaTableTest, UnknownClusterNeverAdmitted) {
  const PoolRegistry reg = ThreePoolRegistry();
  QuotaTable quota;
  quota.Grant("t", 0, 100.0);
  EXPECT_TRUE(quota.WouldExceed("t", reg, "nowhere", {1.0, 1.0, 1.0}));
}

TEST(QuotaTableTest, OverQuotaDetection) {
  const PoolRegistry reg = ThreePoolRegistry();
  QuotaTable quota;
  const auto cpu = reg.Find(PoolKey{"c1", ResourceKind::kCpu});
  quota.Grant("t", *cpu, 5.0);
  quota.Charge("t", reg, "c1", {5.0, 0.0, 0.0});
  EXPECT_FALSE(quota.OverQuota("t"));
  // The market released quota out from under running usage (§ release
  // semantics): the team is now over quota until capacity is vacated.
  quota.Release("t", *cpu, 3.0);
  EXPECT_TRUE(quota.OverQuota("t"));
  EXPECT_FALSE(quota.OverQuota("ghost"));
}

TEST(QuotaTableTest, TeamsListedInFirstSeenOrder) {
  QuotaTable quota;
  quota.Grant("b", 0, 1.0);
  quota.Grant("a", 0, 1.0);
  quota.Grant("b", 1, 1.0);
  EXPECT_EQ(quota.Teams(), (std::vector<std::string>{"b", "a"}));
}

TEST(QuotaTableTest, RestoreRowsAcceptsOnlyTheExportOrder) {
  QuotaTable quota;
  quota.Grant("b", 2, 1.0);
  quota.Grant("a", 0, 2.0);
  quota.Grant("b", 0, 3.0);
  const std::vector<QuotaTable::Row> rows = quota.ExportRows();
  ASSERT_EQ(rows.size(), 3u);  // b/0, b/2, a/0.
  QuotaTable restored;
  restored.RestoreRows(rows, 3);
  EXPECT_EQ(restored.Teams(), quota.Teams());
  EXPECT_EQ(restored.EntitlementOf("b", 2), 1.0);

  const auto rejects = [](std::vector<QuotaTable::Row> mutant,
                          std::size_t num_pools) {
    QuotaTable table;
    EXPECT_THROW(table.RestoreRows(mutant, num_pools), CheckFailure);
  };
  rejects(rows, 2);                          // Pool 2 of 2.
  rejects({rows[1], rows[0], rows[2]}, 3);   // Pools descending.
  rejects({rows[0], rows[0], rows[2]}, 3);   // Duplicate cell.
  rejects({rows[0], rows[2], rows[1]}, 3);   // Team b split around a.
}

// ---------------------------------------------------- market integration --

agents::WorkloadConfig SmallWorld(std::uint64_t seed) {
  agents::WorkloadConfig config;
  config.num_clusters = 6;
  config.num_teams = 20;
  config.min_machines_per_cluster = 12;
  config.max_machines_per_cluster = 22;
  config.seed = seed;
  return config;
}

/// Recomputes per-(team, pool) usage from the fleet's actual jobs and
/// compares with the quota table's incremental bookkeeping.
void ExpectUsageMatchesFleet(const exchange::Market& market,
                             const cluster::Fleet& fleet) {
  const PoolRegistry& registry = fleet.registry();
  std::unordered_map<std::string, std::vector<double>> actual;
  for (const JobLocation& loc : fleet.AllJobs()) {
    const Job* job = fleet.ClusterByName(loc.cluster).FindJob(loc.job);
    ASSERT_NE(job, nullptr);
    auto& usage = actual[job->team];
    usage.resize(registry.size(), 0.0);
    const TaskShape demand = job->TotalDemand();
    for (ResourceKind kind : kAllResourceKinds) {
      const auto pool = registry.Find(PoolKey{loc.cluster, kind});
      ASSERT_TRUE(pool.has_value());
      usage[*pool] += demand.Of(kind);
    }
  }
  for (const auto& [team, usage] : actual) {
    for (PoolId pool = 0; pool < registry.size(); ++pool) {
      EXPECT_NEAR(market.quota().UsageOf(team, pool), usage[pool],
                  1e-6 + 1e-9 * usage[pool])
          << team << " pool " << registry.NameOf(pool);
    }
  }
}

TEST(QuotaMarketTest, BootstrapMatchesInitialFootprints) {
  agents::World world = GenerateWorld(SmallWorld(11));
  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, exchange::MarketConfig{});
  ExpectUsageMatchesFleet(market, world.fleet);
  // Initially usage == entitlement: nobody is over quota.
  for (const std::string& team : market.quota().Teams()) {
    EXPECT_FALSE(market.quota().OverQuota(team)) << team;
  }
}

TEST(QuotaMarketTest, UsageBookkeepingSurvivesAuctions) {
  agents::World world = GenerateWorld(SmallWorld(12));
  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, exchange::MarketConfig{});
  for (int a = 0; a < 3; ++a) {
    market.RunAuction();
    ExpectUsageMatchesFleet(market, world.fleet);
  }
}

TEST(QuotaMarketTest, SettledTradesMoveEntitlements) {
  agents::World world = GenerateWorld(SmallWorld(13));
  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, exchange::MarketConfig{});
  // Total entitlement before == total job demand; after an auction the
  // winners' entitlements must reflect their awarded bundles.
  const exchange::AuctionReport report = market.RunAuction();
  // At least some award granted quota (every auction here settles
  // something).
  ASSERT_GT(report.num_winners, 0u);
  double total_entitlement = 0.0;
  for (const std::string& team : market.quota().Teams()) {
    for (PoolId pool = 0; pool < world.fleet.NumPools(); ++pool) {
      total_entitlement += market.quota().EntitlementOf(team, pool);
    }
  }
  EXPECT_GT(total_entitlement, 0.0);
}

TEST(QuotaChurnTest, AdmissionControlEnforcesQuota) {
  agents::World world = GenerateWorld(SmallWorld(14));
  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, exchange::MarketConfig{});
  sim::EventQueue queue;
  exchange::ChurnConfig config;
  config.arrival_rate = 4.0;
  config.mean_lifetime = 1e6;  // Effectively immortal: pressure builds.
  config.seed = 9;
  exchange::ChurnProcess churn(queue, &world.fleet, &world.agents,
                               config, &market.mutable_quota());
  queue.RunUntil(400.0);
  churn.Stop();
  // With no market granting new quota, teams hit their ceilings: the
  // admission path must have rejected arrivals...
  EXPECT_GT(churn.stats().quota_rejections, 0);
  // ...and bookkeeping still matches physical reality.
  ExpectUsageMatchesFleet(market, world.fleet);
  // Hard §I property: no team exceeds its entitlement.
  for (const std::string& team : market.quota().Teams()) {
    EXPECT_FALSE(market.quota().OverQuota(team, 1e-6)) << team;
  }
}

// ------------------------------------------------------- random sweeps --

class QuotaFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(QuotaFuzzTest, InvariantsHoldUnderRandomOperations) {
  const PoolRegistry reg = ThreePoolRegistry();
  QuotaTable quota;
  RandomStream rng(8800 + static_cast<std::uint64_t>(GetParam()));
  const std::vector<std::string> teams = {"a", "b", "c"};
  for (int op = 0; op < 2000; ++op) {
    const std::string& team =
        teams[static_cast<std::size_t>(rng.UniformInt(0, 2))];
    const auto pool = static_cast<PoolId>(rng.UniformInt(0, 2));
    const double amount = rng.Uniform(0.0, 20.0);
    switch (rng.UniformInt(0, 3)) {
      case 0:
        quota.Grant(team, pool, amount);
        break;
      case 1:
        quota.Release(team, pool, amount);
        break;
      case 2:
        quota.Charge(team, reg, "c1", {amount, amount, amount});
        break;
      default:
        quota.Refund(team, reg, "c1", {amount, amount, amount});
        break;
    }
    // Invariants: entitlements and usage never negative; headroom is
    // their difference; WouldExceed consistent with headroom.
    for (const std::string& t : teams) {
      for (PoolId r = 0; r < reg.size(); ++r) {
        EXPECT_GE(quota.EntitlementOf(t, r), 0.0);
        EXPECT_GE(quota.UsageOf(t, r), 0.0);
        EXPECT_NEAR(quota.HeadroomOf(t, r),
                    quota.EntitlementOf(t, r) - quota.UsageOf(t, r),
                    1e-9);
      }
    }
  }
}

TEST_P(QuotaFuzzTest, WouldExceedAgreesWithChargeOutcome) {
  const PoolRegistry reg = ThreePoolRegistry();
  QuotaTable quota;
  RandomStream rng(8900 + static_cast<std::uint64_t>(GetParam()));
  quota.Grant("t", 0, rng.Uniform(10, 50));
  quota.Grant("t", 1, rng.Uniform(10, 200));
  quota.Grant("t", 2, rng.Uniform(10, 50));
  for (int i = 0; i < 200; ++i) {
    const TaskShape demand{rng.Uniform(0.1, 10.0),
                           rng.Uniform(0.1, 40.0),
                           rng.Uniform(0.1, 10.0)};
    if (!quota.WouldExceed("t", reg, "c1", demand)) {
      quota.Charge("t", reg, "c1", demand);
      EXPECT_FALSE(quota.OverQuota("t", 1e-6));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuotaFuzzTest, ::testing::Range(0, 6));

TEST(QuotaChurnTest, WithoutTableChurnIsUnconstrained) {
  agents::World world = GenerateWorld(SmallWorld(15));
  sim::EventQueue queue;
  exchange::ChurnConfig config;
  config.arrival_rate = 2.0;
  config.seed = 10;
  exchange::ChurnProcess churn(queue, &world.fleet, &world.agents,
                               config);  // No quota table.
  queue.RunUntil(100.0);
  EXPECT_EQ(churn.stats().quota_rejections, 0);
}

}  // namespace
}  // namespace pm::cluster
