// planetmarket: the planet-wide federated exchange.
//
// The paper provisions compute across *planet-wide clusters*; a single
// Market clears one fleet. FederatedExchange fronts N per-cluster market
// shards — each a full exchange::Market with its own fleet, team
// population, ledger, reserve pricer, and arena-compiled DemandEngine —
// and adds the thin federation layer on top:
//
//   demand  ──► MarketRouter places federation-level bids onto shards
//               (affinity / cheapest / split / mirrored, with spill-over
//               when a shard's reserve-weighted price runs hot);
//   clearing ─► every shard runs its clock auction concurrently on a
//               ThreadPool (or serially — bit-identical either way, since
//               shards share no mutable state);
//   reporting ► per-shard reports merge into one planet-wide
//               FederationReport (federation/report.h).
//
// Determinism contract: shard k's world and market draw their seeds from
// ShardWorkloadSeed/ShardMarketSeed(config.seed, k), every shard's round
// is sequential within the shard, and shards are independent — so a
// federated epoch is bit-identical across thread counts, across reruns
// with the same seeds, and (per shard) to running that shard's
// Market::RunAuction standalone with the same bids and seeds. Shards can
// also run behind pm::net proxy nodes (proxy_nodes_per_shard), which
// changes where the demand evaluation work runs, not the mechanism.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "agents/workload_gen.h"
#include "common/thread_pool.h"
#include "exchange/market.h"
#include "federation/arbitrage.h"
#include "federation/economy.h"
#include "federation/health.h"
#include "federation/rebalance.h"
#include "federation/report.h"
#include "federation/router.h"
#include "telemetry/telemetry.h"

namespace pm::federation {

/// The planet-wide economy layer on top of the sharded exchange. All
/// three features default OFF, in which case an epoch's market outcomes
/// (prices, awards, settlements, fleet state) are bit-identical to the
/// plain PR 2 federation (shard-local minting, no cross-shard agents,
/// static fleets) — asserted by tests/federation_economy_test.cpp. The
/// reporting plane does always stamp the read-only cross-shard
/// clearing-price spread on the epoch report (the arbitrage bench's
/// baseline needs it), which touches no market state.
struct EconomyConfig {
  /// One planet-wide ledger: EndowFederatedTeam mints planet currency
  /// instead of per-shard budgets, every epoch pushes shard allowances
  /// before the auctions and sweeps shard balances back afterwards
  /// (money conserved modulo explicit mints/burns — see economy.h).
  bool treasury = false;

  /// Cross-shard arbitrage agents (requires `treasury`: the agent's
  /// working capital is a treasury margin account).
  ArbitrageConfig arbitrage;

  /// Whole-cluster migration between shards.
  RebalanceConfig rebalance;
};

/// One shard's recipe: a synthetic world plus the market over it. The
/// workload and market seeds are overridden with federation-derived
/// streams (see ShardWorkloadSeed) so shards never share RNG state, and
/// `market.distributed_proxy_nodes` must be left at 0 — the wire path is
/// configured federation-wide via FederationConfig::proxy_nodes_per_shard
/// (construction fails loudly otherwise).
struct ShardSpec {
  std::string name;
  agents::WorkloadConfig workload;
  exchange::MarketConfig market;
};

/// Federation-level configuration.
struct FederationConfig {
  /// Base seed; shard k's workload and market seeds derive from it.
  std::uint64_t seed = 20090425;

  RouterConfig router;

  /// Worker threads for concurrent shard auctions; 0 or 1 runs shards
  /// serially inline. Results are identical either way.
  std::size_t num_threads = 0;

  /// Pipelined epochs (RunEpochs): overlap shard demand collection for
  /// epoch e+1 with the single-threaded settlement/telemetry barrier of
  /// epoch e, using double-buffered per-shard summary slots and a depth-2
  /// epoch window. Off (the default), RunEpochs is a plain serial
  /// RunEpoch loop — bit-identical to today's federation. On, the
  /// pipeline engages only for configurations whose barrier does not
  /// write shard state (no supervisor, no treasury/arbitrage/rebalancer,
  /// no queued federated bids, no wall-clock timings, and a thread pool
  /// to overlap on); anything else silently falls back to the serial
  /// loop, which preserves supervisor/checkpoint semantics by
  /// construction. Pipelined results are bit-identical to serial either
  /// way: each shard's auction sequence is unchanged and the barrier
  /// consumes epochs strictly in order (tests/pipelined_federation_test).
  bool pipelined = false;

  /// When > 0, every shard's binding auctions run over the pm::net wire
  /// protocol behind this many proxy nodes. Requires each ShardSpec's
  /// auction config to be distributed-compatible (no intra-round
  /// bisection, thread pool, or trajectory recording) — construction
  /// fails loudly otherwise.
  std::size_t proxy_nodes_per_shard = 0;

  /// Treasury / arbitrage / rebalancing (all default off).
  EconomyConfig economy;

  /// Epoch supervisor (failure domains). Off (the default), RunEpoch is
  /// bit-identical to the unsupervised federation: no checkpoints are
  /// taken and a shard failure propagates as an exception — after an
  /// emergency treasury sweep so the planet ledger's conservation
  /// invariant holds even then. On, each shard epoch runs inside a
  /// containment boundary: a throwing shard (or one exceeding an injected
  /// round budget) is rolled back to its epoch-boundary checkpoint, its
  /// treasury float refunded, its routed bids re-routed or refunded, and
  /// its health machine advanced (healthy → degraded → quarantined →
  /// recovering) while the planet epoch completes without it.
  SupervisorConfig supervisor;

  /// The telemetry plane (metrics registry, bid tracing, flight
  /// recorder). Off (the default), no Telemetry object is constructed,
  /// every instrumentation site below costs one null-pointer test, and
  /// epoch behavior plus every report is bit-identical to a federation
  /// without the plane (asserted by tests/telemetry_test.cpp). On, all
  /// telemetry writes happen in RunEpoch's single-threaded barrier
  /// sections, so exports stay byte-identical across thread counts.
  telemetry::TelemetryConfig telemetry;

  /// Federation-wide lossy-wire injection for the shards' proxy paths.
  /// Requires proxy_nodes_per_shard > 0; each shard derives its own fault
  /// seed from `wire_faults.seed` and its index, so fault patterns differ
  /// per shard but reproduce bit for bit. Per-shard
  /// ShardSpec::market.wire_faults must be left disabled (construction
  /// fails loudly otherwise), mirroring the proxy-node rule.
  net::FaultConfig wire_faults;
};

/// N sharded markets behind one planet-wide exchange.
class FederatedExchange {
 public:
  FederatedExchange(std::vector<ShardSpec> specs, FederationConfig config);

  /// Deterministic per-shard seed derivation, exposed so a shard's world
  /// and market can be reconstructed standalone (the bit-identical
  /// equivalence contract of tests/federation_test.cpp).
  static std::uint64_t ShardWorkloadSeed(std::uint64_t federation_seed,
                                         std::size_t shard);
  static std::uint64_t ShardMarketSeed(std::uint64_t federation_seed,
                                       std::size_t shard);

  std::size_t NumShards() const { return shards_.size(); }
  const std::string& ShardName(std::size_t shard) const;
  exchange::Market& ShardMarket(std::size_t shard);
  const exchange::Market& ShardMarket(std::size_t shard) const;
  const agents::World& ShardWorld(std::size_t shard) const;

  /// Mutable access to a shard's world for scenario-driven mid-run
  /// mutation (demand shocks scaling team profiles, churn processes
  /// attached to the shard's fleet/agents). The shard's market keeps
  /// pointers into this world, so mutations are visible to the next
  /// epoch; callers must not add/remove agents or replace the fleet.
  agents::World& MutableShardWorld(std::size_t shard);

  /// The router's snapshot of every shard (current reserve prices, free
  /// capacity, fixed prices).
  std::vector<ShardView> BuildShardViews() const;

  /// Funds a planet-wide team. Without the treasury (the PR 2 path) this
  /// mints `per_shard_budget` in every shard's local ledger, which stays
  /// authoritative. With EconomyConfig::treasury it instead mints
  /// `per_shard_budget × NumShards()` of planet currency into the team's
  /// treasury account and registers a per-shard allowance of
  /// `per_shard_budget`: each epoch pushes (up to) that allowance into
  /// every shard before the auctions and sweeps the remainders back
  /// afterwards, so between epochs the planet ledger holds every
  /// federated dollar.
  void EndowFederatedTeam(const std::string& team, Money per_shard_budget);

  /// Retires a federated team (scenario cohorts leaving the planet): the
  /// team stops receiving epoch allowances and its remaining money is
  /// removed from circulation — burned from the planet ledger under the
  /// treasury (an explicit Burn record, so conservation still balances),
  /// or withdrawn from every shard's local ledger without one. Returns
  /// the amount removed. Unknown teams return zero.
  Money RetireFederatedTeam(const std::string& team);

  /// Queues a federation-level bid for the next epoch's routing pass.
  void SubmitFederatedBid(FederatedBid bid);

  std::size_t PendingFederatedBids() const { return pending_.size(); }

  /// Runs one settlement epoch: snapshot shard views, route queued
  /// federated bids, run every shard's auction round (concurrently when
  /// configured), and merge the results. Returns the epoch's report (also
  /// appended to History()).
  FederationReport RunEpoch();

  /// Runs `n` epochs. With FederationConfig::pipelined on and an
  /// eligible configuration (see the flag's comment) the epochs run
  /// through the overlapped pipeline; otherwise this is exactly a serial
  /// RunEpoch loop. History() gains `n` reports either way, bit-identical
  /// between the two paths.
  void RunEpochs(int n);

  const std::vector<FederationReport>& History() const { return history_; }
  int EpochCount() const { return static_cast<int>(history_.size()); }

  // ------------------------------------------------- failure domains --
  /// Shard k's live health record (all-healthy defaults when the
  /// supervisor is off).
  const ShardHealthStatus& ShardHealthOf(std::size_t shard) const;

  /// One-shot fault injection: the next epoch, shard k's auction runs to
  /// completion and then throws — exactly the shape of a crash landing
  /// after state was mutated, so containment must roll the shard back.
  /// With the supervisor on the failure is contained; off, it propagates
  /// out of RunEpoch (after the emergency treasury sweep). Cleared after
  /// the epoch; scenario timelines re-inject per epoch.
  void InjectShardFailure(std::size_t shard);

  /// One-shot virtual-time epoch budget: next epoch, shard k fails if its
  /// auction takes more than `max_rounds` clock rounds — the deterministic
  /// stand-in for a wall-clock epoch deadline. Contained or propagated
  /// exactly like InjectShardFailure.
  void InjectEpochRoundBudget(std::size_t shard, int max_rounds);

  /// Read-only fleet pointers in shard order (price-signal and
  /// rebalancing helpers take these).
  std::vector<const cluster::Fleet*> ShardFleets() const;

  /// The planet ledger (null when EconomyConfig::treasury is off).
  const FederationTreasury* treasury() const { return treasury_.get(); }

  /// The cross-shard arbitrageur (null when disabled).
  const ArbitrageAgent* arbitrageur() const { return arbitrage_.get(); }

  /// The fleet rebalancer (null when disabled).
  const FleetRebalancer* rebalancer() const { return rebalancer_.get(); }

  /// The telemetry plane (null when FederationConfig::telemetry is off).
  const telemetry::Telemetry* telemetry() const { return telemetry_.get(); }

 private:
  struct Shard {
    std::string name;
    agents::World world;
    std::unique_ptr<exchange::Market> market;
  };

  /// A treasury-funded planet-wide team and its per-shard epoch
  /// allowance.
  struct FederatedTeam {
    std::string team;
    Money per_shard_allowance;
  };

  /// Executes one planned cluster migration and returns its record.
  ClusterMigration ApplyMigration(const MigrationPlan& plan, int epoch);

  /// The epoch body; RunEpoch wraps it with the exception-unwind path.
  FederationReport RunEpochInternal(int epoch);

  /// True when RunEpochs may take the overlapped pipeline: the barrier
  /// must not write shard state (see FederationConfig::pipelined).
  bool CanPipeline() const;

  /// The overlapped epoch pipeline (only called when CanPipeline()).
  void RunEpochsPipelined(int n);

  /// The T1 barrier block: per-shard metric ingest plus bid-lifecycle
  /// spans. Single-threaded by contract; shared verbatim by the serial
  /// epoch and the pipelined barrier so the two stay byte-identical.
  void IngestShardTelemetry(int epoch,
                            const std::vector<ShardEpochSummary>& summaries,
                            const RoutingResult& routing,
                            const std::vector<std::uint64_t>& epoch_traces);

  /// The T2 barrier block: planet gauges, watchdog pass, epoch snapshot.
  /// Shared like IngestShardTelemetry.
  void CloseEpochTelemetry(int epoch, FederationReport& report);

  /// Reconciles every (team, shard) float back onto the planet ledger —
  /// the exception-unwind path for the unsupervised federation: without
  /// it a shard throwing mid-epoch leaves this epoch's allowances
  /// stranded in shard floats forever (conservation still sums, but the
  /// between-epochs zero-float contract breaks and the money is lost to
  /// its teams). Withdraws each team's shard-local balance and sweeps.
  void EmergencySweep(int epoch);

  FederationConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;  // Stable addresses: each
                                                // market points into its
                                                // shard's world.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<FederatedBid> pending_;
  std::vector<FederationReport> history_;

  // Failure domains (one slot per shard).
  std::vector<ShardHealthStatus> health_;
  std::vector<char> inject_fail_;        // One-shot crash injection.
  std::vector<int> inject_round_budget_; // One-shot budgets (-1 = none).

  // Economy layer (all null/empty when disabled).
  std::unique_ptr<FederationTreasury> treasury_;
  std::unique_ptr<ArbitrageAgent> arbitrage_;
  std::unique_ptr<FleetRebalancer> rebalancer_;
  std::vector<FederatedTeam> federated_teams_;

  // Telemetry plane (null when FederationConfig::telemetry is off).
  std::unique_ptr<telemetry::Telemetry> telemetry_;
};

}  // namespace pm::federation
