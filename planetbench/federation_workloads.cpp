// planet-epoch and planet-economy: closed-loop planet epochs over a
// FederatedExchange, plus the twin-replay tracer for the traced run.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agents/workload_gen.h"
#include "auction/clock_auction.h"
#include "auction/settlement.h"
#include "auction/system_check.h"
#include "bench.h"
#include "common/rng.h"
#include "exchange/endowment.h"
#include "federation/federated_exchange.h"

namespace planetbench {
namespace {

using pm::Money;
using pm::federation::FederatedBid;
using pm::federation::FederatedExchange;
using pm::federation::FederationConfig;
using pm::federation::FederationReport;
using pm::federation::ShardSpec;

// ------------------------------------------------------------ workloads --

struct FedWorkload {
  std::vector<ShardSpec> specs;
  FederationConfig config;
  /// Federated teams in registration order, with their per-shard budget
  /// (a one-off endowment, or the per-epoch allowance under the treasury).
  std::vector<std::pair<std::string, Money>> teams;
  int bids_per_epoch = 4;
  std::uint64_t bid_seed = 0;
  long long bidders = 0;  // Resident teams across all shards.
  int episode_epochs = 0;  // Epochs per world in a timed run.
  int trace_epochs = 0;    // Epochs per segment in a traced run.
  /// Seconds one world (set-up plus episode_epochs) takes on the
  /// reference host; a timed run sets up seconds / world_seconds worlds.
  double world_seconds = 0.0;
};

/// Market settings both federated workloads share: every award refunds
/// what it cannot place, so awarded == placed + refunded must hold, and
/// the SYSTEM audit stays on (MarketConfig's default).
void Configure(const Options& o, pm::exchange::MarketConfig& market) {
  market.settlement.refund_unplaced = o.inject != "refund";
  if (o.inject == "converge") market.auction.max_rounds = 1;
}

FedWorkload PlanetEpoch(const Options& o, std::uint64_t seed) {
  FedWorkload w;
  w.episode_epochs = 6;
  w.trace_epochs = 3;
  w.world_seconds = 7.5;
  const int shards = o.tiny ? 2 : 4;
  for (int k = 0; k < shards; ++k) {
    ShardSpec spec;
    spec.name = "shard-" + std::to_string(k);
    spec.workload.num_teams = o.tiny ? 60 : 2500;
    spec.workload.num_clusters = o.tiny ? 8 : 200;
    if (o.tiny) {
      spec.workload.min_machines_per_cluster = 8;
      spec.workload.max_machines_per_cluster = 16;
    }
    Configure(o, spec.market);
    w.bidders += spec.workload.num_teams;
    w.specs.push_back(std::move(spec));
  }
  w.config.seed = seed;
  w.config.telemetry.enabled = true;
  // The profiler's settle and barrier spans feed only the traced run's
  // layer split, so timed runs leave its wall channel off.
  w.config.telemetry.profiler.wall_clock = o.trace;
  for (int t = 0; t < 4; ++t) {
    w.teams.emplace_back("fed/planet-" + std::to_string(t),
                         Money::FromDollars(2000000));
  }
  w.bid_seed = seed;
  return w;
}

FedWorkload PlanetEconomy(const Options& o, std::uint64_t seed) {
  FedWorkload w;
  w.episode_epochs = 8;
  w.trace_epochs = 6;
  w.world_seconds = 7.0;
  const int shards = o.tiny ? 3 : 4;
  for (int k = 0; k < shards; ++k) {
    ShardSpec spec;
    spec.name = "region-" + std::to_string(k);
    spec.workload.num_teams = o.tiny ? 40 : 2000;
    spec.workload.num_clusters = o.tiny ? 4 : 12;
    spec.workload.min_machines_per_cluster = o.tiny ? 16 : 300;
    spec.workload.max_machines_per_cluster = o.tiny ? 32 : 600;
    // One hot shard and cool ones: the spread the economy layer works on.
    spec.workload.min_target_utilization = k == 0 ? 0.80 : 0.10;
    spec.workload.max_target_utilization = k == 0 ? 0.95 : 0.35;
    Configure(o, spec.market);
    w.bidders += spec.workload.num_teams;
    w.specs.push_back(std::move(spec));
  }
  FederationConfig& c = w.config;
  c.seed = seed;
  c.economy.treasury = true;
  c.economy.arbitrage.enabled = true;
  c.economy.arbitrage.margin = Money::FromDollars(1000000);
  c.economy.arbitrage.min_spread = 0.05;
  c.economy.arbitrage.buy_fraction = 0.20;
  c.economy.rebalance.enabled = true;
  c.economy.rebalance.spread_threshold = 0.25;
  c.economy.rebalance.consecutive_epochs = 2;
  c.supervisor.enabled = true;
  c.telemetry.enabled = true;
  c.telemetry.watchdog.recording_rules = true;
  c.telemetry.watchdog.alerts = true;
  c.telemetry.profiler.work_accounting = true;
  c.telemetry.profiler.wall_clock = true;
  for (int t = 0; t < 4; ++t) {
    w.teams.emplace_back("fed/economy-" + std::to_string(t),
                         Money::FromDollars(400000));
  }
  w.bid_seed = seed ^ 0x5bd1e995ULL;
  return w;
}

/// The federated bids of one epoch: a pure function of the seed and the
/// epoch, so every segment of a run submits the same demand.
std::vector<FederatedBid> EpochBids(const FedWorkload& w, int epoch) {
  pm::RandomStream rng = pm::RandomStream::Substream(w.bid_seed, epoch);
  std::vector<FederatedBid> bids;
  for (int i = 0; i < w.bids_per_epoch; ++i) {
    FederatedBid bid;
    bid.team = w.teams[static_cast<std::size_t>(i) % w.teams.size()].first;
    bid.tag = "e" + std::to_string(epoch) + "-" + std::to_string(i);
    const double cpu = rng.Uniform(8.0, 48.0);
    bid.quantity = pm::cluster::TaskShape{cpu, 4.0 * cpu,
                                          rng.Uniform(1.0, 6.0)};
    bid.limit = rng.Uniform(20000.0, 80000.0);
    bid.home_shard = w.specs[static_cast<std::size_t>(rng.UniformInt(
                                 0, static_cast<std::int64_t>(
                                        w.specs.size()) - 1))]
                         .name;
    bids.push_back(std::move(bid));
  }
  return bids;
}

std::unique_ptr<FederatedExchange> Build(const FedWorkload& w,
                                         std::size_t threads) {
  FederationConfig config = w.config;
  config.num_threads = threads;
  auto fed = std::make_unique<FederatedExchange>(w.specs, config);
  for (const auto& [team, budget] : w.teams) {
    fed->EndowFederatedTeam(team, budget);
  }
  return fed;
}

// ---------------------------------------------------------- correctness --

/// Checks one epoch's invariants and folds its deterministic outputs
/// (settled prices and awards) into the digest chain.
void CheckEpoch(const FederatedExchange& fed, const FederationReport& r,
                Ops& ops, Digest& digest) {
  const std::string where = "epoch " + std::to_string(r.epoch);
  for (const pm::federation::ShardEpochSummary& s : r.shards) {
    if (!s.participated) continue;
    ++ops.attempted;
    bool ok = true;
    const std::string shard = where + " shard " + s.name;
    if (s.failed) {
      ok = false;
      ops.Fail(shard + " failed: " + s.failure);
    } else if (!s.report.converged) {
      ok = false;
      ops.Fail(shard + " did not converge");
    }
    digest.U64(s.shard);
    for (const double p : s.report.settled_prices) digest.F64(p);
    for (const pm::exchange::AwardRecord& award : s.report.awards) {
      const pm::exchange::PlacementOutcome& out = award.outcome;
      digest.Str(award.team);
      digest.Str(award.bid_name);
      digest.U64(static_cast<std::uint64_t>(award.bundle_index));
      digest.F64(award.payment);
      digest.F64(out.awarded_units);
      digest.F64(out.placed_units);
      digest.F64(out.refunded_units);
      // Quota-only awards trade pools whose cluster left the shard; they
      // place nothing by design.
      if (out.quota_only) continue;
      if (std::abs(out.awarded_units -
                   (out.placed_units + out.refunded_units)) > 1e-6) {
        ok = false;
        ops.Fail(shard + " award " + award.bid_name +
                 " breaks awarded == placed + refunded");
      }
    }
    if (!ok) ++ops.failed;
  }
  if (const pm::federation::FederationTreasury* t = fed.treasury()) {
    const Money held = t->TeamTotal() + t->FloatTotal() + t->ShardNetTotal();
    if (held != t->TotalMinted() - t->TotalBurned()) {
      ops.Fail(where + ": treasury does not conserve money");
    }
    if (!t->FloatTotal().IsZero()) {
      ops.Fail(where + ": shard floats are not zero between epochs");
    }
  }
}

// ---------------------------------------------------------- twin replay --

/// The layers a twin replay times, per shard.
enum Layer {
  kBidgen,
  kLearn,
  kReserve,
  kCompile,
  kClock,  // Whole ClockAuction::Run; collect and bisect are inside it.
  kCollect,
  kBisect,
  kAudit,
  kSettle,
  kTrades,
  kNumLayers
};

struct ShardProbe {
  bool replayed = false;
  double ms[kNumLayers] = {};
  std::size_t bids = 0;
  std::size_t samples = 0;
  std::vector<double> prices;
};

/// Replays every shard's next auction on a twin market, layer by layer,
/// through the library's public calls and in RunAuction's order. The
/// twin is restored from the real shard's epoch-boundary snapshot, so the
/// real federation is only read, never perturbed.
class Tracer {
 public:
  explicit Tracer(const FedWorkload& w) : w_(w) {
    const double t0 = NowMs();
    for (std::size_t k = 0; k < w.specs.size(); ++k) {
      auto twin = std::make_unique<Twin>();
      twin->spec = w.specs[k];
      // The overrides FederatedExchange applies to each shard's recipe.
      twin->spec.workload.seed =
          FederatedExchange::ShardWorkloadSeed(w.config.seed, k);
      twin->spec.market.seed =
          FederatedExchange::ShardMarketSeed(w.config.seed, k);
      twin->spec.market.phase_timings =
          w.config.telemetry.enabled && w.config.telemetry.profiler.wall_clock;
      const double g0 = NowMs();
      twin->world = std::make_unique<pm::agents::World>(
          pm::agents::GenerateWorld(twin->spec.workload));
      worldgen_ms_ += NowMs() - g0;
      twin->market = std::make_unique<pm::exchange::Market>(
          &twin->world->fleet, &twin->world->agents,
          twin->world->fixed_prices, twin->spec.market);
      twins_.push_back(std::move(twin));
    }
    setup_ms_ = NowMs() - t0;
  }

  /// Runs before the real epoch, while `pending` is not yet submitted.
  void Replay(const FederatedExchange& fed,
              const std::vector<FederatedBid>& pending, int epoch) {
    const std::size_t n = twins_.size();
    probes_.assign(n, ShardProbe{});
    ++epochs_;

    // Epoch-boundary checkpoints: the cost the supervisor pays at S0.
    std::vector<std::vector<std::uint8_t>> frames(n);
    for (std::size_t k = 0; k < n; ++k) {
      if (fed.ShardHealthOf(k).status !=
          pm::federation::ShardHealth::kHealthy) {
        continue;  // Not replayable: the shard's epoch is supervised away.
      }
      const double t0 = NowMs();
      frames[k] = fed.ShardMarket(k).Snapshot();
      checkpoint_ms_ += NowMs() - t0;
      checkpoint_bytes_ += static_cast<double>(frames[k].size());
    }

    // The epoch's federation-level inputs to each shard, mirrored from
    // RunEpoch: treasury allowances, arbitrage bids, routed parts.
    std::vector<std::vector<std::pair<std::string, Money>>> endow(n);
    std::vector<std::vector<pm::exchange::Market::ExternalBid>> external(n);
    std::optional<pm::federation::FederationTreasury> treasury;
    if (fed.treasury() != nullptr) treasury = *fed.treasury();
    if (treasury) {
      for (const auto& [team, allowance] : w_.teams) {
        const std::vector<Money> fair =
            pm::exchange::SplitEvenly(treasury->PlanetBalance(team), n);
        for (std::size_t k = 0; k < n; ++k) {
          const Money granted = treasury->PushAllowance(
              team, k, std::min(allowance, fair[k]), epoch);
          if (!granted.IsZero()) endow[k].emplace_back(team, granted);
        }
      }
    }
    const double r0 = NowMs();
    std::vector<pm::federation::ShardView> views = fed.BuildShardViews();
    double route_ms = NowMs() - r0;
    if (fed.arbitrageur() != nullptr && !fed.History().empty()) {
      pm::federation::ArbitrageAgent agent = *fed.arbitrageur();
      for (pm::federation::ArbitragePlan& plan : agent.PlanEpoch(
               &fed.History().back(), views, fed.ShardFleets(), epoch)) {
        if (plan.is_buy) {
          const Money granted = treasury->PushAllowance(
              agent.team(), plan.shard, plan.funding, epoch);
          if (granted.IsZero()) continue;
          endow[plan.shard].emplace_back(agent.team(), granted);
          plan.bid.limit = std::min(plan.bid.limit, granted.ToDouble());
        }
        external[plan.shard].push_back({agent.team(), plan.bid});
      }
    }
    if (!pending.empty()) {
      const double t0 = NowMs();
      pm::federation::MarketRouter router(w_.config.router, views);
      pm::federation::RoutingResult routing;
      if (treasury && w_.config.router.budget_pressure > 0.0) {
        std::unordered_map<std::string, double> balances;
        for (const std::string& team : treasury->Teams()) {
          balances.emplace(team, treasury->PlanetBalance(team).ToDouble());
        }
        routing = router.Route(pending, balances);
      } else {
        routing = router.Route(pending);
      }
      route_ms += NowMs() - t0;
      for (pm::federation::RoutedBid& routed : routing.routed) {
        external[routed.shard].push_back(
            {routed.team, std::move(routed.bid)});
      }
    }
    route_ms_ += route_ms;

    for (std::size_t k = 0; k < n; ++k) {
      if (frames[k].empty()) {
        ++unreplayable_;
        continue;
      }
      ReplayShard(k, frames[k], endow[k], std::move(external[k]));
    }
  }

  /// Compares the twins against the real epoch's shard reports.
  void Compare(const FederationReport& real, const Options& options,
               Ops& ops) {
    double skew_max = 0.0;
    double skew_sum = 0.0;
    int skew_n = 0;
    for (std::size_t k = 0; k < probes_.size(); ++k) {
      const ShardProbe& p = probes_[k];
      if (!p.replayed) continue;
      const pm::federation::ShardEpochSummary& s = real.shards[k];
      if (!s.participated || s.failed) {
        ++unreplayable_;  // Nothing real to compare against.
        continue;
      }
      ++replayed_;
      bool match = s.report.num_bids == p.bids &&
                   s.report.settled_prices == p.prices &&
                   s.report.trades.size() == p.samples;
      if (options.inject == "fidelity" && real.epoch == 1 && k == 0) {
        match = false;
      }
      if (!match) {
        ops.Fail("twin fidelity: epoch " + std::to_string(real.epoch) +
                 " shard " + s.name + ": bids " +
                 std::to_string(p.bids) + " vs " +
                 std::to_string(s.report.num_bids) + ", trade samples " +
                 std::to_string(p.samples) + " vs " +
                 std::to_string(s.report.trades.size()) + ", prices " +
                 (s.report.settled_prices == p.prices ? "equal"
                                                      : "differ"));
      }
      double settle_span = 0.0;
      for (const pm::PhaseSpan& span : s.report.phases) {
        if (span.name == "settle") {
          settle_span += static_cast<double>(span.end_ns - span.begin_ns) /
                         1e6;
        }
      }
      pipeline_ms_ += settle_span - p.ms[kSettle] - p.ms[kTrades];
      for (const pm::exchange::AwardRecord& award : s.report.awards) {
        ++awards_;
        units_placed_ += award.outcome.placed_units;
        units_refunded_ += award.outcome.refunded_units;
      }
      double shard_ms = 0.0;
      for (int l = 0; l < kNumLayers; ++l) {
        if (l != kCollect && l != kBisect) shard_ms += p.ms[l];
      }
      skew_max = std::max(skew_max, shard_ms);
      skew_sum += shard_ms;
      ++skew_n;
    }
    if (skew_n > 0 && skew_sum > 0.0) {
      skew_total_ += skew_max / (skew_sum / skew_n);
      ++skew_epochs_;
    }
    migrations_ += static_cast<double>(real.migrations.size());
  }

  /// Per-layer metrics and per-epoch self times (for FinishTrace).
  void Finish(const FederatedExchange& fed, RunResult& result,
              std::vector<std::pair<std::string, double>>& self_ms) const {
    const double e = std::max(1, epochs_);
    auto& m = result.metrics;
    m["agents.bidgen_ms"] = {total_[kBidgen] / e, "ms"};
    m["agents.learn_ms"] = {total_[kLearn] / e, "ms"};
    m["agents.bids"] = {bids_ / e, "count"};
    m["agents.bundle_items"] = {bundle_items_ / e, "count"};
    m["agents.worldgen_ms"] = {worldgen_ms_, "ms"};
    m["reserve.price_ms"] = {total_[kReserve] / e, "ms"};
    m["auction.compile_ms"] = {total_[kCompile] / e, "ms"};
    m["auction.clock_ms"] = {total_[kClock] / e, "ms"};
    m["auction.collect_ms"] = {total_[kCollect] / e, "ms"};
    m["auction.bisect_ms"] = {total_[kBisect] / e, "ms"};
    m["auction.audit_ms"] = {total_[kAudit] / e, "ms"};
    m["auction.settle_ms"] = {total_[kSettle] / e, "ms"};
    m["auction.rounds"] = {rounds_ / e, "count"};
    m["auction.full_collections"] = {full_ / e, "count"};
    m["auction.incremental_collections"] = {incremental_ / e, "count"};
    m["auction.bisection_probes"] = {probes_count_ / e, "count"};
    m["auction.dot_blocks"] = {dot_blocks_ / e, "count"};
    m["exchange.trades_ms"] = {total_[kTrades] / e, "ms"};
    m["exchange.trade_samples"] = {samples_ / e, "count"};
    m["cluster.util_evals"] = {util_evals_ / e, "count"};
    m["exchange.settle_pipeline_ms"] = {pipeline_ms_ / e, "ms"};
    m["exchange.awards"] = {awards_ / e, "count"};
    m["exchange.units_placed"] = {units_placed_ / e, "count"};
    m["exchange.units_refunded"] = {units_refunded_ / e, "count"};
    m["federation.route_ms"] = {route_ms_ / e, "ms"};
    m["federation.checkpoint_ms"] = {checkpoint_ms_ / e, "ms"};
    m["federation.checkpoint_bytes"] = {checkpoint_bytes_ / e, "bytes"};
    const double barrier = BarrierMs(fed) / e;
    m["federation.barrier_ms"] = {barrier, "ms"};
    m["federation.migrations"] = {migrations_, "count"};
    m["federation.shard_skew"] = {
        skew_epochs_ > 0 ? skew_total_ / skew_epochs_ : 0.0, "ratio"};
    m["twin.replayed_shard_epochs"] = {static_cast<double>(replayed_),
                                       "count"};
    m["twin.unreplayable_shard_epochs"] = {
        static_cast<double>(unreplayable_), "count"};
    result.notes.push_back(
        "twin replay: " + std::to_string(replayed_) +
        " shard-epochs replayed, " + std::to_string(unreplayable_) +
        " not replayable; twin setup " + std::to_string(setup_ms_) + " ms");

    self_ms = {
        {"agents.bidgen", total_[kBidgen] / e},
        {"agents.learn", total_[kLearn] / e},
        {"reserve.price", total_[kReserve] / e},
        {"auction.compile", total_[kCompile] / e},
        {"auction.clock",
         (total_[kClock] - total_[kCollect] - total_[kBisect]) / e},
        {"auction.collect", total_[kCollect] / e},
        {"auction.bisect", total_[kBisect] / e},
        {"auction.audit", total_[kAudit] / e},
        {"auction.settle", total_[kSettle] / e},
        {"exchange.trades", total_[kTrades] / e},
        {"exchange.settle_pipeline", pipeline_ms_ / e},
        {"federation.route", route_ms_ / e},
        {"federation.barrier", barrier},
    };
    // Checkpoints are part of the real epoch only under the supervisor.
    if (w_.config.supervisor.enabled) {
      self_ms.emplace_back("federation.checkpoint", checkpoint_ms_ / e);
    }
  }

 private:
  struct Twin {
    ShardSpec spec;
    std::unique_ptr<pm::agents::World> world;
    std::unique_ptr<pm::exchange::Market> market;
  };

  void ReplayShard(std::size_t k, const std::vector<std::uint8_t>& frame,
                   const std::vector<std::pair<std::string, Money>>& endow,
                   std::vector<pm::exchange::Market::ExternalBid> external) {
    Twin& twin = *twins_[k];
    pm::exchange::Market& market = *twin.market;
    try {
      market.Restore(frame);
    } catch (const std::exception&) {
      ++unreplayable_;
      return;
    }
    ShardProbe& p = probes_[k];
    p.replayed = true;
    const pm::cluster::Fleet& fleet = twin.world->fleet;
    std::vector<pm::agents::TeamAgent>& agents = twin.world->agents;
    const pm::exchange::MarketConfig& config = twin.spec.market;

    for (const auto& [team, amount] : endow) {
      market.EndowTeam(team, amount, "twin allowance");
    }

    double t0 = NowMs();
    const std::vector<double> reserve = market.CurrentReservePrices();
    p.ms[kReserve] = NowMs() - t0;
    if (market.AuctionCount() == 0) {
      // The first auction endows every resident team at fixed prices.
      const std::vector<Money> budgets = pm::exchange::ComputeEndowments(
          fleet.registry(), agents, market.fixed_prices(),
          config.endowment);
      for (std::size_t a = 0; a < agents.size(); ++a) {
        market.EndowTeam(agents[a].profile().name, budgets[a],
                         "twin endowment");
      }
    }
    const std::vector<double> utilization = fleet.UtilizationVector();
    std::vector<double> supply = fleet.FreeVector();
    for (double& s : supply) s *= config.supply_fraction;

    // Bid collection, with Market's budget and validation gate.
    struct Origin {
      std::size_t agent;
      std::size_t local;
    };
    constexpr std::size_t kExternal = static_cast<std::size_t>(-1);
    std::vector<pm::bid::Bid> bids;
    std::vector<Origin> origin;
    std::vector<std::size_t> per_agent(agents.size(), 0);
    for (std::size_t a = 0; a < agents.size(); ++a) {
      pm::agents::MarketView view;
      view.registry = &fleet.registry();
      view.reserve_prices = reserve;
      view.utilization = utilization;
      view.free_capacity = supply;
      view.budget = market.TeamBudget(agents[a].profile().name).ToDouble();
      view.auction_index = market.AuctionCount();
      t0 = NowMs();
      std::vector<pm::bid::Bid> made = agents[a].MakeBids(view);
      p.ms[kBidgen] += NowMs() - t0;
      per_agent[a] = made.size();
      for (std::size_t i = 0; i < made.size(); ++i) {
        made[i].limit = std::min(made[i].limit, view.budget);
        for (double& limit : made[i].bundle_limits) {
          limit = std::min(limit, view.budget);
        }
        if (!pm::bid::ValidateBid(made[i], fleet.NumPools()).empty()) {
          continue;
        }
        origin.push_back({a, i});
        bids.push_back(std::move(made[i]));
      }
    }
    for (pm::exchange::Market::ExternalBid& ext : external) {
      const double budget = market.TeamBudget(ext.team).ToDouble();
      ext.bid.limit = std::min(ext.bid.limit, budget);
      for (double& limit : ext.bid.bundle_limits) {
        limit = std::min(limit, budget);
      }
      if (!pm::bid::ValidateBid(ext.bid, fleet.NumPools()).empty()) continue;
      origin.push_back({kExternal, 0});
      bids.push_back(std::move(ext.bid));
    }
    pm::bid::AssignUserIds(bids);
    p.bids = bids.size();
    bids_ += static_cast<double>(bids.size());
    for (const pm::bid::Bid& b : bids) {
      for (const pm::bid::Bundle& bundle : b.bundles) {
        bundle_items_ += static_cast<double>(bundle.items().size());
      }
    }

    t0 = NowMs();
    const pm::auction::ClockAuction auction(bids, supply, reserve,
                                            config.demand_engine);
    p.ms[kCompile] = NowMs() - t0;
    pm::auction::ClockAuctionConfig run_config = config.auction;
    run_config.collect_phase_timings = true;
    t0 = NowMs();
    const pm::auction::ClockAuctionResult result = auction.Run(run_config);
    p.ms[kClock] = NowMs() - t0;
    for (const pm::PhaseSpan& span : result.phases) {
      const double ms = static_cast<double>(span.end_ns - span.begin_ns) / 1e6;
      if (span.name == "collect") p.ms[kCollect] += ms;
      if (span.name == "bisect") p.ms[kBisect] += ms;
    }
    rounds_ += result.rounds;
    full_ += static_cast<double>(result.full_collections);
    incremental_ += static_cast<double>(result.incremental_collections);
    probes_count_ += static_cast<double>(result.bisection_probes);
    dot_blocks_ += static_cast<double>(result.dot_blocks);
    p.prices = result.prices;

    if (config.audit_system && result.converged) {
      t0 = NowMs();
      const pm::auction::SystemCheckResult audit =
          pm::auction::CheckSystemConstraints(
              auction, result, std::max(1e-6, config.auction.demand_eps));
      p.ms[kAudit] = NowMs() - t0;
      (void)audit;  // The real shard's audit is the one that must hold.
    }

    t0 = NowMs();
    const pm::auction::Settlement settlement =
        pm::auction::Settle(auction, result);
    p.ms[kSettle] = NowMs() - t0;

    // Trade recording: one utilization percentile per awarded item.
    t0 = NowMs();
    for (const pm::auction::Award& award : settlement.awards) {
      const pm::bid::Bundle& bundle =
          bids[award.user].bundles[static_cast<std::size_t>(
              award.bundle_index)];
      for (const pm::bid::BundleItem& item : bundle.items()) {
        const pm::PoolKey& key = fleet.registry().KeyOf(item.pool);
        if (!fleet.HasCluster(key.cluster)) continue;
        fleet.UtilizationPercentile(key.cluster, key.kind);
        ++p.samples;
      }
    }
    p.ms[kTrades] = NowMs() - t0;
    samples_ += static_cast<double>(p.samples);
    util_evals_ += static_cast<double>(p.samples) *
                   static_cast<double>(fleet.NumClusters());

    // Learning: every resident agent observes the uniform prices.
    std::vector<std::vector<pm::agents::BidOutcome>> outcomes(agents.size());
    for (std::size_t a = 0; a < agents.size(); ++a) {
      outcomes[a].resize(per_agent[a]);
    }
    for (const pm::auction::Award& award : settlement.awards) {
      const Origin& o = origin[award.user];
      if (o.agent == kExternal) continue;
      pm::agents::BidOutcome& outcome = outcomes[o.agent][o.local];
      outcome.won = true;
      outcome.bundle_index = award.bundle_index;
      outcome.payment = award.payment;
    }
    t0 = NowMs();
    for (std::size_t a = 0; a < agents.size(); ++a) {
      agents[a].ObserveOutcome(result.prices, outcomes[a]);
    }
    p.ms[kLearn] = NowMs() - t0;

    for (int l = 0; l < kNumLayers; ++l) total_[l] += p.ms[l];
  }

  /// Sums the profiler's existing barrier spans (chrome-trace export).
  static double BarrierMs(const FederatedExchange& fed) {
    if (fed.telemetry() == nullptr || fed.telemetry()->profiler() == nullptr) {
      return 0.0;
    }
    const std::string json = fed.telemetry()->profiler()->ChromeTraceJson();
    const std::string key = "\"name\": \"barrier\"";
    double us = 0.0;
    for (std::size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + key.size())) {
      const std::size_t dur = json.find("\"dur\": ", at);
      if (dur == std::string::npos) break;
      us += std::strtod(json.c_str() + dur + 7, nullptr);
    }
    return us / 1e3;
  }

  const FedWorkload& w_;
  std::vector<std::unique_ptr<Twin>> twins_;
  std::vector<ShardProbe> probes_;
  int epochs_ = 0;
  double total_[kNumLayers] = {};
  double worldgen_ms_ = 0.0;
  double setup_ms_ = 0.0;
  double checkpoint_ms_ = 0.0;
  double checkpoint_bytes_ = 0.0;
  double route_ms_ = 0.0;
  double pipeline_ms_ = 0.0;
  double bids_ = 0.0;
  double bundle_items_ = 0.0;
  double samples_ = 0.0;
  double util_evals_ = 0.0;
  double rounds_ = 0.0;
  double full_ = 0.0;
  double incremental_ = 0.0;
  double probes_count_ = 0.0;
  double dot_blocks_ = 0.0;
  double awards_ = 0.0;
  double units_placed_ = 0.0;
  double units_refunded_ = 0.0;
  double migrations_ = 0.0;
  double skew_total_ = 0.0;
  int skew_epochs_ = 0;
  long long replayed_ = 0;
  long long unreplayable_ = 0;
};

// ------------------------------------------------------------ epoch loop --

/// Runs `epochs` epochs back to back from this, the only client thread.
/// With a tracer, each epoch is first replayed on the twins; the replay
/// is outside the epoch's timed window.
Segment RunSegment(FederatedExchange& fed, const FedWorkload& w,
                   const Options& options, Ops& ops, Tracer* tracer) {
  Segment seg;
  Digest digest;
  const int epochs = options.trace ? w.trace_epochs : w.episode_epochs;
  for (int e = 0; e < epochs; ++e) {
    std::vector<FederatedBid> bids = EpochBids(w, e);
    if (tracer != nullptr) tracer->Replay(fed, bids, e);
    for (FederatedBid& bid : bids) fed.SubmitFederatedBid(std::move(bid));
    const double w0 = NowMs();
    const double c0 = CpuMs();
    fed.RunEpoch();
    seg.epoch_cpu_ms.push_back(CpuMs() - c0);
    seg.epoch_ms.push_back(NowMs() - w0);
    const FederationReport& report = fed.History().back();
    CheckEpoch(fed, report, ops, digest);
    seg.digests.push_back(digest.value());
    if (tracer != nullptr) tracer->Compare(report, options, ops);
  }
  return seg;
}

FedWorkload MakeWorkload(const Options& options, std::uint64_t seed) {
  return options.workload == "planet-epoch" ? PlanetEpoch(options, seed)
                                            : PlanetEconomy(options, seed);
}

}  // namespace

RunResult RunFederationWorkload(const Options& options) {
  RunResult result;
  if (!options.trace) {
    const FedWorkload first = MakeWorkload(options, options.seed);
    RunEpisodes(
        options, first.world_seconds, first.bidders,
        [&](std::uint64_t seed) {
          const FedWorkload w = MakeWorkload(options, seed);
          Episode episode;
          const double t0 = NowMs();
          auto fed = Build(w, options.threads);
          episode.setup_s = (NowMs() - t0) / 1e3;
          episode.segment = RunSegment(*fed, w, options, result.ops, nullptr);
          return episode;
        },
        result);
    result.notes.insert(
        result.notes.begin(),
        options.workload + ": " + std::to_string(first.specs.size()) +
            " shards, " + std::to_string(first.bidders) + " bidders, " +
            std::to_string(first.episode_epochs) + " epochs per world, " +
            std::to_string(options.threads) + " worker threads");
    return result;
  }

  // Traced run, all on the run's first world: the full pool and one
  // thread untraced, then one thread with the twin replay ahead of every
  // real epoch.
  const FedWorkload w = MakeWorkload(options, options.seed);
  Segment threaded;
  Segment single;
  {
    auto fed = Build(w, options.threads);
    threaded = RunSegment(*fed, w, options, result.ops, nullptr);
  }
  {
    auto fed = Build(w, 1);
    single = RunSegment(*fed, w, options, result.ops, nullptr);
  }
  auto fed = Build(w, 1);
  Tracer tracer(w);
  const Segment traced = RunSegment(*fed, w, options, result.ops, &tracer);
  std::vector<std::pair<std::string, double>> self_ms;
  tracer.Finish(*fed, result, self_ms);
  FinishTrace(options, threaded, single, traced, self_ms, result);
  return result;
}

}  // namespace planetbench
