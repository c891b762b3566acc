// Parameterized property sweeps across modules:
//  * random bid-language trees: alternative counting vs actual expansion,
//    and concrete-syntax round-trips through the parser
//  * bin-packing placement invariants across policies × random workloads,
//    and sparse placement slots against the dense-scan oracle
//  * whole-market invariants across seeds (conservation, price floors,
//    report sanity)
//  * distributed/serial equivalence across proxy-node counts
//  * fuzzing: garbage and corrupted wire frames, parser token soup, and
//    resealed byte mutations of market snapshot frames
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "agents/workload_gen.h"
#include "bid/tbbl_flatten.h"
#include "bid/tbbl_parser.h"
#include "cluster/scheduler.h"
#include "common/check.h"
#include "common/rng.h"
#include "exchange/market.h"
#include "federation/federated_exchange.h"
#include "net/distributed_auction.h"
#include "net/serializer.h"
#include "net/wire.h"

namespace pm {
namespace {

// ------------------------------------------------- random TBBL trees --

/// Builds a random tree. Leaves draw from a pool of (kind, cluster)
/// pairs with positive quantities, so AND products cannot cancel.
std::unique_ptr<bid::TbblNode> RandomTree(RandomStream& rng, int depth) {
  const double leaf_probability = depth >= 3 ? 1.0 : 0.4;
  if (rng.Bernoulli(leaf_probability)) {
    const auto kind = static_cast<ResourceKind>(rng.UniformInt(0, 2));
    const std::string cluster =
        "c" + std::to_string(rng.UniformInt(0, 5));
    // Integer quantities so the ToString → parse round-trip is lossless
    // (the renderer uses default double formatting).
    return bid::TbblNode::Leaf(
        kind, cluster, static_cast<double>(rng.UniformInt(1, 20)));
  }
  const bool is_xor = rng.Bernoulli(0.5);
  const int fanout = static_cast<int>(rng.UniformInt(1, 3));
  std::vector<std::unique_ptr<bid::TbblNode>> children;
  for (int i = 0; i < fanout; ++i) {
    children.push_back(RandomTree(rng, depth + 1));
  }
  return is_xor ? bid::TbblNode::Xor(std::move(children))
                : bid::TbblNode::And(std::move(children));
}

class TbblPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TbblPropertyTest, ExpansionMatchesCountAlternatives) {
  RandomStream rng(9000 + static_cast<std::uint64_t>(GetParam()));
  const auto tree = RandomTree(rng, 0);
  const std::size_t predicted = tree->CountAlternatives(100000);
  PoolRegistry registry;
  std::string error;
  const std::vector<bid::Bundle> bundles =
      bid::FlattenTree(*tree, registry, 100000, error);
  ASSERT_TRUE(error.empty()) << error;
  // Flattening may merge duplicate alternatives only at the Bid level;
  // FlattenTree itself returns the raw expansion.
  EXPECT_EQ(bundles.size(), predicted);
}

TEST_P(TbblPropertyTest, ConcreteSyntaxRoundTripsThroughParser) {
  RandomStream rng(9100 + static_cast<std::uint64_t>(GetParam()));
  const auto tree = RandomTree(rng, 0);
  std::ostringstream source;
  source << "bid \"roundtrip\" limit 123.5 { " << tree->ToString()
         << " }";

  const bid::ParseResult parsed = bid::ParseTbbl(source.str());
  ASSERT_TRUE(parsed.ok()) << parsed.errors[0].ToString();
  ASSERT_EQ(parsed.statements.size(), 1u);

  PoolRegistry reg_a, reg_b;
  std::string err_a, err_b;
  const auto direct = bid::FlattenTree(*tree, reg_a, 100000, err_a);
  const auto reparsed = bid::FlattenTree(*parsed.statements[0].root,
                                         reg_b, 100000, err_b);
  ASSERT_TRUE(err_a.empty() && err_b.empty());
  ASSERT_EQ(direct.size(), reparsed.size());
  // Registries were built in identical interning order, so bundles must
  // match exactly, in order.
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i], reparsed[i]) << "alternative " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TbblPropertyTest, ::testing::Range(0, 12));

// ------------------------------------------------ placement invariants --

// The machine sets placement runs over. kIdentical makes every pick on
// empty machines a tie, which best fit must break to the lowest index;
// kPreloaded starts from machines that are already partly used;
// kZeroDimension gives every machine no capacity in one random dimension,
// so it only takes shapes that are zero there.
enum class MachineMix { kRandom, kIdentical, kPreloaded, kZeroDimension };

using PlacementParam = std::tuple<int, MachineMix>;

class PlacementPropertyTest
    : public ::testing::TestWithParam<PlacementParam> {};

cluster::TaskShape RandomCapacity(RandomStream& rng) {
  return cluster::TaskShape{rng.Uniform(8.0, 32.0), rng.Uniform(32.0, 128.0),
                            rng.Uniform(4.0, 16.0)};
}

std::vector<cluster::Machine> MakeMachines(RandomStream& rng,
                                           int num_machines,
                                           MachineMix mix) {
  const cluster::TaskShape shared =
      mix == MachineMix::kIdentical ? RandomCapacity(rng)
                                    : cluster::TaskShape{};
  std::vector<cluster::Machine> machines;
  for (int m = 0; m < num_machines; ++m) {
    cluster::TaskShape capacity =
        mix == MachineMix::kIdentical ? shared : RandomCapacity(rng);
    if (mix == MachineMix::kZeroDimension) {
      capacity.Of(kAllResourceKinds[rng.UniformInt(0, 2)]) = 0.0;
    }
    machines.emplace_back(capacity);
    if (mix == MachineMix::kPreloaded) {
      const cluster::TaskShape& cap = machines.back().capacity();
      machines.back().Place(cluster::TaskShape{
          cap.cpu * rng.Uniform(0.0, 0.8), cap.ram_gb * rng.Uniform(0.0, 0.8),
          cap.disk_tb * rng.Uniform(0.0, 0.8)});
    }
  }
  return machines;
}

TEST_P(PlacementPropertyTest, NeverExceedsCapacityAndUndoRestores) {
  RandomStream rng(7700 + static_cast<std::uint64_t>(
                              std::get<0>(GetParam())));
  std::vector<cluster::Machine> machines =
      MakeMachines(rng, static_cast<int>(rng.UniformInt(3, 12)),
                   std::get<1>(GetParam()));
  const std::vector<cluster::Machine> pristine = machines;

  struct Placed {
    cluster::TaskShape shape;
    cluster::PlacementResult result;
  };
  std::vector<Placed> history;
  for (int round = 0; round < 20; ++round) {
    const cluster::TaskShape shape{rng.Uniform(0.5, 6.0),
                                   rng.Uniform(1.0, 24.0),
                                   rng.Uniform(0.1, 3.0)};
    const int count = static_cast<int>(rng.UniformInt(1, 10));
    cluster::PlacementResult result = PlaceTasks(machines, shape, count);
    EXPECT_EQ(result.TotalPlaced() + result.tasks_failed, count);
    for (const cluster::Machine& m : machines) {
      for (ResourceKind kind : kAllResourceKinds) {
        EXPECT_LE(m.used().Of(kind),
                  m.capacity().Of(kind) * (1.0 + 1e-9) + 1e-9);
        EXPECT_GE(m.used().Of(kind), -1e-9);
      }
    }
    history.push_back(Placed{shape, std::move(result)});
  }
  // Undo everything; machines must return to pristine state.
  for (auto it = history.rbegin(); it != history.rend(); ++it) {
    UndoPlacement(machines, it->shape, it->result);
  }
  for (std::size_t m = 0; m < machines.size(); ++m) {
    for (ResourceKind kind : kAllResourceKinds) {
      EXPECT_NEAR(machines[m].used().Of(kind),
                  pristine[m].used().Of(kind), 1e-6);
    }
  }
}

// Differential oracle: the dense placement scan that PlaceTasks' sparse
// slots and tournament tree replaced. Same best-fit pick rule, but it
// rescans every machine per task, records one task count per machine and
// undoes by walking every machine.
std::vector<int> OraclePlaceTasks(std::vector<cluster::Machine>& machines,
                                  const cluster::TaskShape& shape, int count,
                                  int* tasks_failed) {
  std::vector<int> tasks_placed(machines.size(), 0);
  *tasks_failed = 0;
  for (int t = 0; t < count; ++t) {
    int best = -1;
    double best_fill = 0.0;
    for (std::size_t i = 0; i < machines.size(); ++i) {
      if (!machines[i].CanFit(shape)) continue;
      const double fill = machines[i].FillAfter(shape);
      if (best < 0 || fill > best_fill) {
        best = static_cast<int>(i);
        best_fill = fill;
      }
    }
    if (best < 0) {
      *tasks_failed = count - t;
      break;
    }
    machines[static_cast<std::size_t>(best)].Place(shape);
    ++tasks_placed[static_cast<std::size_t>(best)];
  }
  return tasks_placed;
}

void OracleUndo(std::vector<cluster::Machine>& machines,
                const cluster::TaskShape& shape,
                const std::vector<int>& tasks_placed) {
  for (std::size_t i = 0; i < machines.size(); ++i) {
    for (int t = 0; t < tasks_placed[i]; ++t) machines[i].Remove(shape);
  }
}

std::vector<int> Expand(const cluster::PlacementResult& result,
                        std::size_t num_machines) {
  std::vector<int> dense(num_machines, 0);
  for (const cluster::PlacementSlot& slot : result.slots) {
    EXPECT_GE(slot.tasks, 1);
    dense.at(slot.machine) += slot.tasks;
  }
  return dense;
}

void ExpectSameBits(const std::vector<cluster::Machine>& a,
                    const std::vector<cluster::Machine>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    for (ResourceKind kind : kAllResourceKinds) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[m].used().Of(kind)),
                std::bit_cast<std::uint64_t>(b[m].used().Of(kind)))
          << "machine " << m << " kind " << static_cast<int>(kind);
    }
  }
}

// An upper bound on the tasks of `shape` that `machines` can take, even
// empty: asking for this many exhausts them partway through the call.
int ExhaustingCount(const std::vector<cluster::Machine>& machines,
                    const cluster::TaskShape& shape) {
  int total = 1;
  for (const cluster::Machine& m : machines) {
    double fit = 1e9;
    for (ResourceKind kind : kAllResourceKinds) {
      if (shape.Of(kind) > 0.0) {
        fit = std::min(fit, m.capacity().Of(kind) / shape.Of(kind));
      }
    }
    total += static_cast<int>(fit) + 2;
  }
  return total;
}

// Runs random placement rounds on `machines` and on a copy through the
// dense oracle, expecting the same picks and bit-identical usage.
void ExpectPlacementMatchesOracle(RandomStream& rng,
                                  std::vector<cluster::Machine> machines) {
  std::vector<cluster::Machine> oracle = machines;
  struct Placed {
    cluster::TaskShape shape;
    cluster::PlacementResult result;
    std::vector<int> dense;
  };
  std::vector<Placed> placed;
  for (int round = 0; round < 40; ++round) {
    // Every tenth round asks for more tasks than the machines can hold,
    // with shapes large enough to keep that request small.
    const bool exhaust = round % 10 == 9;
    cluster::TaskShape shape =
        exhaust ? cluster::TaskShape{rng.Uniform(4.0, 8.0),
                                     rng.Uniform(16.0, 32.0),
                                     rng.Uniform(2.0, 4.0)}
                : cluster::TaskShape{rng.Uniform(0.5, 6.0),
                                     rng.Uniform(1.0, 24.0),
                                     rng.Uniform(0.1, 3.0)};
    // Zero components reach the zero-capacity dimensions and the
    // capacity-less branch of FillAfter.
    if (rng.Bernoulli(0.3)) {
      shape.Of(kAllResourceKinds[rng.UniformInt(0, 2)]) = 0.0;
    }
    const int count = exhaust ? ExhaustingCount(machines, shape)
                              : static_cast<int>(rng.UniformInt(0, 30));
    cluster::PlacementResult result = PlaceTasks(machines, shape, count);
    int oracle_failed = 0;
    std::vector<int> dense =
        OraclePlaceTasks(oracle, shape, count, &oracle_failed);
    for (std::size_t i = 1; i < result.slots.size(); ++i) {
      EXPECT_LT(result.slots[i - 1].machine, result.slots[i].machine);
    }
    EXPECT_EQ(Expand(result, machines.size()), dense) << "round " << round;
    EXPECT_EQ(result.tasks_failed, oracle_failed) << "round " << round;
    if (exhaust) EXPECT_GT(result.tasks_failed, 0) << "round " << round;
    ExpectSameBits(machines, oracle);
    placed.push_back(Placed{shape, std::move(result), std::move(dense)});

    // Undo a random earlier placement now and then, so later rounds
    // place onto machines that were partly freed.
    if (rng.Bernoulli(0.3)) {
      const auto pick = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(placed.size()) - 1));
      UndoPlacement(machines, placed[pick].shape, placed[pick].result);
      OracleUndo(oracle, placed[pick].shape, placed[pick].dense);
      ExpectSameBits(machines, oracle);
      placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  for (auto it = placed.rbegin(); it != placed.rend(); ++it) {
    UndoPlacement(machines, it->shape, it->result);
    OracleUndo(oracle, it->shape, it->dense);
  }
  ExpectSameBits(machines, oracle);
}

TEST_P(PlacementPropertyTest, SparseSlotsMatchDenseOracle) {
  RandomStream rng(7800 + static_cast<std::uint64_t>(
                              std::get<0>(GetParam())));
  // PlaceTasks keeps a tournament tree over the machines: cover a lone
  // machine, both sides of a power of two and a planet-sized cluster,
  // plus one random size.
  const int sizes[] = {1, 2, 3, 63, 64, 65, 600,
                       static_cast<int>(rng.UniformInt(1, 40))};
  for (const int num_machines : sizes) {
    SCOPED_TRACE("machines " + std::to_string(num_machines));
    ExpectPlacementMatchesOracle(
        rng, MakeMachines(rng, num_machines, std::get<1>(GetParam())));
  }
}

// The instance name predates the machine-mix axis (it swept placement
// policies when there were three); it is kept so the test IDs stay stable.
INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, PlacementPropertyTest,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(MachineMix::kRandom,
                                         MachineMix::kIdentical,
                                         MachineMix::kPreloaded,
                                         MachineMix::kZeroDimension)));

// --------------------------------------------------- market invariants --

class MarketPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MarketPropertyTest, AuctionRoundInvariants) {
  agents::WorkloadConfig workload;
  workload.num_clusters = 8;
  workload.num_teams = 28;
  workload.min_machines_per_cluster = 12;
  workload.max_machines_per_cluster = 24;
  workload.seed = 5000 + static_cast<std::uint64_t>(GetParam());
  agents::World world = GenerateWorld(workload);
  exchange::MarketConfig config;
  exchange::Market market(&world.fleet, &world.agents,
                          world.fixed_prices, config);

  for (int round = 0; round < 3; ++round) {
    const exchange::AuctionReport report = market.RunAuction();
    // Conservation: total money never created or destroyed.
    EXPECT_EQ(market.ledger().TotalBalance(), Money());
    // Prices respect the reserve floor.
    ASSERT_EQ(report.settled_prices.size(),
              report.reserve_prices.size());
    for (std::size_t r = 0; r < report.settled_prices.size(); ++r) {
      EXPECT_GE(report.settled_prices[r],
                report.reserve_prices[r] - 1e-9);
    }
    // Report sanity.
    EXPECT_LE(report.num_winners, report.num_bids);
    for (const exchange::TradeSample& t : report.trades) {
      EXPECT_GE(t.util_percentile, 0.0);
      EXPECT_LE(t.util_percentile, 100.0);
      EXPECT_GT(t.qty, 0.0);
    }
    // Fleet stays physically sane.
    for (double u : report.post_utilization) {
      EXPECT_GE(u, -1e-9);
      EXPECT_LE(u, 1.0 + 1e-9);
    }
    // No budget account may end negative (only the treasury can).
    for (const agents::TeamAgent& agent : world.agents) {
      EXPECT_GE(market.TeamBudget(agent.profile().name), Money());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MarketPropertyTest,
                         ::testing::Range(0, 8));

// -------------------------------------- distributed equivalence sweep --

class DistributedSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributedSweepTest, AnyNodeCountMatchesSerial) {
  RandomStream rng(3300);
  constexpr std::size_t kPools = 6;
  std::vector<double> supply(kPools), reserve(kPools);
  for (std::size_t r = 0; r < kPools; ++r) {
    supply[r] = rng.Uniform(5.0, 30.0);
    reserve[r] = rng.Uniform(0.5, 2.0);
  }
  std::vector<bid::Bid> bids;
  for (UserId u = 0; u < 37; ++u) {
    bid::Bid b;
    b.user = u;
    b.name = "u" + std::to_string(u);
    const auto pool = static_cast<PoolId>(rng.UniformInt(0, kPools - 1));
    const double qty = rng.Uniform(1.0, 5.0);
    b.bundles = {bid::Bundle({bid::BundleItem{pool, qty}})};
    b.limit = qty * reserve[pool] * rng.Uniform(1.1, 3.0);
    bids.push_back(std::move(b));
  }
  const auction::ClockAuction auction(std::move(bids), std::move(supply),
                                      std::move(reserve));
  auction::ClockAuctionConfig config;
  config.alpha = 0.4;
  config.delta = 0.08;
  const auction::ClockAuctionResult serial = auction.Run(config);

  net::DistributedConfig dist;
  dist.num_proxy_nodes = static_cast<std::size_t>(GetParam());
  dist.auction = config;
  const net::DistributedResult d = RunDistributedAuction(auction, dist);
  EXPECT_EQ(serial.prices, d.result.prices);
  EXPECT_EQ(serial.rounds, d.result.rounds);
  EXPECT_EQ(d.transport.decode_failures, 0);
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, DistributedSweepTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ----------------------------------------------- robustness fuzzing --

class FuzzSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweepTest, WireDecodersNeverCrashOnGarbage) {
  RandomStream rng(4400 + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> frame(
        static_cast<std::size_t>(rng.UniformInt(0, 64)));
    for (auto& byte : frame) {
      byte = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
    }
    // Random bytes must be rejected cleanly, never crash or throw.
    EXPECT_NO_THROW({
      (void)net::PeekType(frame);
      (void)net::DecodePriceAnnounce(frame);
      (void)net::DecodeDemandReply(frame);
      (void)net::DecodeTerminate(frame);
    });
  }
}

TEST_P(FuzzSweepTest, CorruptedRealFramesAreRejectedOrEqual) {
  RandomStream rng(4500 + static_cast<std::uint64_t>(GetParam()));
  net::PriceAnnounce msg;
  msg.round = 12;
  for (int i = 0; i < 16; ++i) msg.prices.push_back(rng.Uniform(0, 10));
  const std::vector<std::uint8_t> good = net::Encode(msg);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> frame = good;
    const auto pos = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(frame.size()) - 1));
    const auto bit = static_cast<int>(rng.UniformInt(0, 7));
    frame[pos] ^= static_cast<std::uint8_t>(1 << bit);
    // A flipped bit must never yield a *different* successfully decoded
    // message: the checksum catches it.
    const auto decoded = net::DecodePriceAnnounce(frame);
    EXPECT_FALSE(decoded.has_value());
  }
}

TEST_P(FuzzSweepTest, ParserNeverCrashesOnTokenSoup) {
  RandomStream rng(4600 + static_cast<std::uint64_t>(GetParam()));
  const char* fragments[] = {"bid",  "offer",  "limit", "min",
                             "xor",  "and",    "{",     "}",
                             ":",    "@",      "cpu",   "ram",
                             "disk", "\"t\"",  "3.5",   "-2",
                             "c1",   "###",    "\n",    "\"", "$"};
  for (int i = 0; i < 150; ++i) {
    std::string source;
    const int tokens = static_cast<int>(rng.UniformInt(0, 40));
    for (int t = 0; t < tokens; ++t) {
      source += fragments[rng.UniformInt(
          0, static_cast<std::int64_t>(std::size(fragments)) - 1)];
      source += ' ';
    }
    EXPECT_NO_THROW({
      PoolRegistry registry;
      const bid::FlattenOutcome out =
          bid::CompileBids(source, registry);
      // Either it compiled or it reported an error; both are fine.
      if (!out.ok()) EXPECT_FALSE(out.error.empty());
    }) << source;
  }
}

// Offsets of the fleet and quota sections and of every placed job's slot
// fields in a Market::Snapshot() frame, found by walking the frame's
// layout.
struct SnapshotLayout {
  struct JobSlots {
    std::uint32_t num_machines = 0;  // Of the job's cluster.
    std::size_t slot_count = 0;
    std::vector<std::size_t> machine;  // One offset per slot.
    std::vector<std::size_t> tasks;
  };
  std::size_t endowed_flag = 0;
  std::size_t clusters_begin = 0;  // The cluster count.
  std::size_t clusters_end = 0;    // The agent count after the clusters.
  std::vector<std::size_t> cluster_names;  // Each name's length prefix.
  std::vector<JobSlots> jobs;
  std::size_t quota_begin = 0;  // The quota row count.
  std::size_t quota_end = 0;    // The auction count after the rows.
};

void PutU32(std::vector<std::uint8_t>& frame, std::size_t at,
            std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    frame.at(at + static_cast<std::size_t>(i)) =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::uint32_t GetU32(const std::vector<std::uint8_t>& frame, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(frame.at(at + static_cast<std::size_t>(i)))
         << (8 * i);
  }
  return v;
}

SnapshotLayout WalkSnapshot(const std::vector<std::uint8_t>& frame) {
  std::size_t at = 0;
  const auto u32 = [&] {
    const std::uint32_t v = GetU32(frame, at);
    at += 4;
    return v;
  };
  const auto skip_string = [&] { at += u32(); };
  SnapshotLayout layout;
  at += 4;                  // Version.
  at += 8 * u32();          // Fixed prices.
  layout.endowed_flag = at;
  at += 1 + 8 + 4 * 8;      // Endowed flag, next job id, RNG state.
  at += 3 * 8;              // Unit costs.
  for (std::uint32_t pools = u32(); pools > 0; --pools) {
    skip_string();
    at += 1;
  }
  layout.clusters_begin = at;
  for (std::uint32_t clusters = u32(); clusters > 0; --clusters) {
    layout.cluster_names.push_back(at);
    skip_string();
    const std::uint32_t num_machines = u32();
    at += 6 * 8 * static_cast<std::size_t>(num_machines);
    for (std::uint32_t jobs = u32(); jobs > 0; --jobs) {
      at += 8;  // Job id.
      skip_string();
      at += 3 * 8 + 4;  // Shape, tasks.
      SnapshotLayout::JobSlots job;
      job.num_machines = num_machines;
      job.slot_count = at;
      for (std::uint32_t slots = u32(); slots > 0; --slots) {
        job.machine.push_back(at);
        job.tasks.push_back(at + 4);
        at += 8;
      }
      at += 4;  // Tasks failed.
      layout.jobs.push_back(std::move(job));
    }
  }
  layout.clusters_end = at;
  const auto skip_doubles = [&] { at += 8 * static_cast<std::size_t>(u32()); };
  for (std::uint32_t agents = u32(); agents > 0; --agents) {
    skip_string();
    at += 1;  // Strategy.
    skip_string();
    at += 3 * 8 + 3 * 8;  // Footprint; growth, relocation, value.
    skip_doubles();       // Beliefs.
    at += 8 + 4 + 4 * 8;  // Markup, observations, RNG state.
    skip_doubles();       // Holdings.
    skip_doubles();       // Placement penalty.
  }
  at += 4;  // Operator account.
  for (std::uint32_t accounts = u32(); accounts > 0; --accounts) {
    skip_string();
    at += 8 + 1;  // Balance, overdraft flag.
  }
  for (std::uint32_t entries = u32(); entries > 0; --entries) {
    at += 4 + 4 + 8;  // From, to, amount.
    skip_string();
    at += 4;  // Sequence.
  }
  layout.quota_begin = at;
  for (std::uint32_t rows = u32(); rows > 0; --rows) {
    skip_string();
    at += 4 + 8 + 8;  // Pool, entitlement, usage.
  }
  layout.quota_end = at;
  EXPECT_EQ(at + 4 + 8, frame.size()) << "auction count and checksum";
  return layout;
}

// Rewrites the FNV-1a trailer so a mutant passes the checksum and
// reaches the decoder's own validation.
void Reseal(std::vector<std::uint8_t>& frame) {
  const std::size_t payload = frame.size() - 8;
  const std::uint64_t sum = net::Fnv1a(frame.data(), payload);
  for (int i = 0; i < 8; ++i) {
    frame[payload + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

// A mutant frame is either rejected with CheckFailure or restores and
// re-snapshots to exactly its own bytes. Returns whether it was rejected.
bool RejectedOrRoundTrips(exchange::Market& market,
                          const std::vector<std::uint8_t>& frame) {
  try {
    market.Restore(frame);
  } catch (const CheckFailure&) {
    return true;
  }
  EXPECT_EQ(market.Snapshot(), frame);
  return false;
}

TEST_P(FuzzSweepTest, MutatedSnapshotFramesAreRejectedOrRoundTrip) {
  // A real checkpoint: shard 0 of a supervised federation, two epochs in,
  // so its clusters hold placed jobs.
  std::vector<federation::ShardSpec> specs;
  for (int k = 0; k < 2; ++k) {
    federation::ShardSpec spec;
    spec.name = "region-" + std::to_string(k);
    spec.workload.num_clusters = 3;
    spec.workload.num_teams = 10;
    spec.workload.min_machines_per_cluster = 8;
    spec.workload.max_machines_per_cluster = 16;
    spec.market.auction.alpha = 0.4;
    spec.market.auction.delta = 0.08;
    specs.push_back(std::move(spec));
  }
  federation::FederationConfig config;
  config.seed = 4700 + static_cast<std::uint64_t>(GetParam());
  config.supervisor.enabled = true;
  federation::FederatedExchange fed(specs, config);
  fed.RunEpoch();
  fed.RunEpoch();
  exchange::Market& market = fed.ShardMarket(0);
  const std::vector<std::uint8_t> good = market.Snapshot();
  const SnapshotLayout layout = WalkSnapshot(good);
  ASSERT_FALSE(layout.jobs.empty());

  // Targeted: every placement field of every job, set to values that
  // break one slot rule each. All of them must be rejected.
  const auto expect_rejected = [&](std::size_t at, std::uint32_t v,
                                   const char* what) {
    std::vector<std::uint8_t> frame = good;
    PutU32(frame, at, v);
    Reseal(frame);
    EXPECT_THROW(market.Restore(frame), CheckFailure) << what;
  };
  bool saw_multi_slot = false;
  for (const SnapshotLayout::JobSlots& job : layout.jobs) {
    const std::uint32_t count = GetU32(good, job.slot_count);
    ASSERT_GE(count, 1u);
    expect_rejected(job.slot_count, count + 1, "slot count + 1");
    expect_rejected(job.slot_count, count - 1, "slot count - 1");
    expect_rejected(job.slot_count, 0xFFFFFFFFu, "huge slot count");
    for (std::size_t i = 0; i < job.machine.size(); ++i) {
      expect_rejected(job.machine[i], job.num_machines, "machine == count");
      expect_rejected(job.machine[i], 0xFFFFFFFFu, "machine out of range");
      const std::uint32_t tasks = GetU32(good, job.tasks[i]);
      expect_rejected(job.tasks[i], 0, "empty slot");
      expect_rejected(job.tasks[i], static_cast<std::uint32_t>(-1),
                      "negative tasks");
      expect_rejected(job.tasks[i], tasks + 1, "tasks sum too large");
      if (i > 0) {
        saw_multi_slot = true;
        const std::uint32_t prev = GetU32(good, job.machine[i - 1]);
        expect_rejected(job.machine[i], prev, "repeated machine");
        std::vector<std::uint8_t> swapped = good;
        PutU32(swapped, job.machine[i - 1], GetU32(good, job.machine[i]));
        PutU32(swapped, job.machine[i], prev);
        Reseal(swapped);
        EXPECT_THROW(market.Restore(swapped), CheckFailure)
            << "descending slots";
      }
    }
  }
  EXPECT_TRUE(saw_multi_slot) << "no job spans two machines; the "
                                 "ordering rule went unexercised";

  // A cluster renamed to its neighbour's name must not restore: the
  // re-snapshot would write the first cluster's records twice.
  ASSERT_GE(layout.cluster_names.size(), 2u);
  const std::size_t first = layout.cluster_names[0];
  const std::size_t second = layout.cluster_names[1];
  ASSERT_EQ(GetU32(good, first), GetU32(good, second));
  std::vector<std::uint8_t> renamed = good;
  std::copy_n(good.begin() + static_cast<std::ptrdiff_t>(first),
              4 + GetU32(good, first),
              renamed.begin() + static_cast<std::ptrdiff_t>(second));
  Reseal(renamed);
  EXPECT_THROW(market.Restore(renamed), CheckFailure) << "duplicate name";

  // Flag bytes are 0 or 1; any other value would restore as set and
  // re-snapshot as 1, so it must be rejected.
  ASSERT_LE(good.at(layout.endowed_flag), 1);
  std::vector<std::uint8_t> flagged = good;
  flagged[layout.endowed_flag] = 2;
  Reseal(flagged);
  EXPECT_THROW(market.Restore(flagged), CheckFailure) << "endowed flag 2";

  // The auction count restores as that many stub reports, within a cap.
  std::vector<std::uint8_t> recounted = good;
  PutU32(recounted, layout.quota_end, GetU32(good, layout.quota_end) + 1);
  Reseal(recounted);
  EXPECT_FALSE(RejectedOrRoundTrips(market, recounted)) << "one more auction";
  PutU32(recounted, layout.quota_end, 0xFFFFFFFFu);
  Reseal(recounted);
  EXPECT_THROW(market.Restore(recounted), CheckFailure) << "huge auction count";

  // Random: byte mutations over the fleet's cluster records (machines,
  // jobs and their slots) and over the quota rows, resealed.
  RandomStream rng(4800 + static_cast<std::uint64_t>(GetParam()));
  ASSERT_LT(layout.quota_begin + 4, layout.quota_end) << "no quota rows";
  for (const auto [begin, end] :
       {std::pair{layout.clusters_begin, layout.clusters_end},
        std::pair{layout.quota_begin, layout.quota_end}}) {
    int rejected = 0;
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<std::uint8_t> frame = good;
      const int flips = static_cast<int>(rng.UniformInt(1, 3));
      for (int f = 0; f < flips; ++f) {
        const auto at = static_cast<std::size_t>(
            rng.UniformInt(static_cast<std::int64_t>(begin),
                           static_cast<std::int64_t>(end) - 1));
        frame[at] = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
      }
      Reseal(frame);
      if (RejectedOrRoundTrips(market, frame)) ++rejected;
    }
    EXPECT_GT(rejected, 0) << "section at byte " << begin;
  }

  // The market is still usable: the good frame round-trips.
  market.Restore(good);
  EXPECT_EQ(market.Snapshot(), good);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweepTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace pm
