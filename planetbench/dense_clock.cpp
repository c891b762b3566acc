// dense-clock: one standalone ClockAuction over synthetic dense bids,
// cleared repeatedly through the public constructor, Run and Settle —
// the paper's §III.C.4 hot loop in isolation.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "auction/clock_auction.h"
#include "auction/settlement.h"
#include "auction/system_check.h"
#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exchange/market.h"

namespace planetbench {
namespace {

struct DenseMarket {
  std::vector<pm::bid::Bid> bids;
  std::vector<double> supply;
  std::vector<double> reserve;
};

struct DenseSize {
  int users = 20000;
  int pools = 100;
  int bundles = 4;
  int items = 64;
};

/// Synthetic bidders, each holding several dense bundles, so collection
/// cost is dominated by the q·p sweeps over the demand engine's arena.
DenseMarket MakeDenseMarket(const DenseSize& size, std::uint64_t seed) {
  pm::RandomStream rng(seed);
  DenseMarket m;
  m.supply.assign(static_cast<std::size_t>(size.pools), 10.0);
  m.reserve.assign(static_cast<std::size_t>(size.pools), 1.0);
  m.bids.reserve(static_cast<std::size_t>(size.users));
  for (int u = 0; u < size.users; ++u) {
    pm::bid::Bid b;
    b.name = "u" + std::to_string(u);
    for (int k = 0; k < size.bundles; ++k) {
      std::vector<pm::bid::BundleItem> items;
      for (int j = 0; j < size.items; ++j) {
        items.push_back(pm::bid::BundleItem{
            static_cast<pm::PoolId>(rng.UniformInt(0, size.pools - 1)),
            rng.Uniform(0.5, 4.0)});
      }
      pm::bid::Bundle bundle(std::move(items));
      if (!bundle.Empty()) b.bundles.push_back(std::move(bundle));
    }
    if (b.bundles.empty()) {
      b.bundles.push_back(pm::bid::Bundle({pm::bid::BundleItem{0, 1.0}}));
    }
    b.limit = rng.Uniform(50.0, 500.0);
    m.bids.push_back(std::move(b));
  }
  pm::bid::AssignUserIds(m.bids);
  return m;
}

std::uint64_t ClearingDigest(const pm::auction::ClockAuctionResult& result,
                             const pm::auction::Settlement& settlement) {
  Digest d;
  for (const double p : result.prices) d.F64(p);
  for (const pm::auction::Award& award : settlement.awards) {
    d.U64(award.user);
    d.U64(static_cast<std::uint64_t>(award.bundle_index));
    d.F64(award.payment);
  }
  return d.value();
}

/// Per-layer accumulators of the traced segment.
struct DenseProbe {
  double compile_ms = 0.0;
  double clock_ms = 0.0;
  double collect_ms = 0.0;
  double bisect_ms = 0.0;
  double audit_ms = 0.0;
  double settle_ms = 0.0;
  double rounds = 0.0;
  double full = 0.0;
  double incremental = 0.0;
  double probes = 0.0;
  double dot_blocks = 0.0;
  double awards = 0.0;
};

/// Clearings per world in a timed run, and per segment in a traced run.
constexpr int kEpisodeClearings = 10;
constexpr int kTraceClearings = 8;

/// Seconds one world (set-up plus kEpisodeClearings) takes on the
/// reference host; a timed run sets up seconds / kWorldSeconds worlds.
constexpr double kWorldSeconds = 6.0;

/// Clears the market `clearings` times back to back. Each clearing is
/// checked outside its timed window: it must converge, pass the SYSTEM
/// audit, and reproduce the first clearing's digest.
Segment RunSegment(const Options& options, const DenseMarket& market,
                   std::size_t threads, int clearings, Ops& ops,
                   DenseProbe* probe) {
  std::unique_ptr<pm::ThreadPool> pool;
  pm::auction::ClockAuctionConfig config =
      pm::exchange::DefaultMarketAuctionConfig();
  if (options.inject == "converge") config.max_rounds = 1;
  if (threads > 1) {
    pool = std::make_unique<pm::ThreadPool>(threads);
    config.thread_pool = pool.get();
  }
  config.collect_phase_timings = probe != nullptr;
  const double tolerance = std::max(1e-6, config.demand_eps);
  Segment seg;
  while (seg.epochs() < clearings) {
    const double w0 = NowMs();
    const double c0 = CpuMs();
    const pm::auction::ClockAuction auction(market.bids, market.supply,
                                            market.reserve);
    const double w1 = NowMs();
    const pm::auction::ClockAuctionResult result = auction.Run(config);
    const double w2 = NowMs();
    const pm::auction::Settlement settlement =
        pm::auction::Settle(auction, result);
    const double w3 = NowMs();
    seg.epoch_cpu_ms.push_back(CpuMs() - c0);
    seg.epoch_ms.push_back(w3 - w0);

    ++ops.attempted;
    bool ok = true;
    const std::string where = "clearing " + std::to_string(seg.epochs());
    if (!result.converged) {
      ok = false;
      ops.Fail(where + " did not converge");
    }
    const double a0 = NowMs();
    const pm::auction::SystemCheckResult audit =
        pm::auction::CheckSystemConstraints(auction, result, tolerance);
    const double a1 = NowMs();
    if (result.converged && !audit.Feasible()) {
      ok = false;
      ops.Fail(where + " violates SYSTEM: " + audit.ToString());
    }
    seg.digests.push_back(ClearingDigest(result, settlement));
    if (seg.digests.back() != seg.digests.front()) {
      ok = false;
      ops.Fail(where + " is not deterministic: digest " +
               Hex(seg.digests.back()) + " vs " + Hex(seg.digests.front()));
    }
    if (!ok) ++ops.failed;

    if (probe != nullptr) {
      probe->compile_ms += w1 - w0;
      probe->clock_ms += w2 - w1;
      probe->settle_ms += w3 - w2;
      probe->audit_ms += a1 - a0;
      for (const pm::PhaseSpan& span : result.phases) {
        const double ms =
            static_cast<double>(span.end_ns - span.begin_ns) / 1e6;
        if (span.name == "collect") probe->collect_ms += ms;
        if (span.name == "bisect") probe->bisect_ms += ms;
      }
      probe->rounds += result.rounds;
      probe->full += static_cast<double>(result.full_collections);
      probe->incremental +=
          static_cast<double>(result.incremental_collections);
      probe->probes += static_cast<double>(result.bisection_probes);
      probe->dot_blocks += static_cast<double>(result.dot_blocks);
      probe->awards += static_cast<double>(settlement.awards.size());
    }
  }
  return seg;
}

}  // namespace

// The timed run clears on one thread. With a worker pool, every round's
// collection waits for its slowest helper, and on a host whose memory
// bandwidth is shared with other tenants the clearing time swung twofold
// between runs (a ten-seed spread of 51%); on one thread it held within
// about 11%. The pool's scaling is still measured, by the traced run's
// federation.thread_speedup.
RunResult RunDenseClock(const Options& options) {
  DenseSize size;
  if (options.tiny) size = DenseSize{300, 20, 4, 16};
  RunResult result;
  auto& m = result.metrics;
  if (!options.trace) {
    RunEpisodes(
        options, kWorldSeconds, size.users,
        [&](std::uint64_t seed) {
          Episode episode;
          const double t0 = NowMs();
          const DenseMarket market = MakeDenseMarket(size, seed);
          episode.setup_s = (NowMs() - t0) / 1e3;
          episode.segment =
              RunSegment(options, market, /*threads=*/1, kEpisodeClearings,
                         result.ops, nullptr);
          return episode;
        },
        result);
    result.notes.insert(
        result.notes.begin(),
        "dense-clock: " + std::to_string(size.users) + " bidders x " +
            std::to_string(size.bundles) + " bundles x " +
            std::to_string(size.items) + " items over " +
            std::to_string(size.pools) + " pools, " +
            std::to_string(kEpisodeClearings) +
            " clearings per world on one thread");
    return result;
  }

  const double g0 = NowMs();
  const DenseMarket market = MakeDenseMarket(size, options.seed);
  const double worldgen_ms = NowMs() - g0;
  const Segment threaded = RunSegment(options, market, options.threads,
                                      kTraceClearings, result.ops, nullptr);
  const Segment single =
      RunSegment(options, market, 1, kTraceClearings, result.ops, nullptr);
  DenseProbe p;
  const Segment traced =
      RunSegment(options, market, 1, kTraceClearings, result.ops, &p);
  const double e = std::max(1, traced.epochs());

  // Layers this workload exercises.
  m["agents.worldgen_ms"] = {worldgen_ms, "ms"};
  m["agents.bids"] = {static_cast<double>(market.bids.size()), "count"};
  double items = 0.0;
  for (const pm::bid::Bid& b : market.bids) {
    for (const pm::bid::Bundle& bundle : b.bundles) {
      items += static_cast<double>(bundle.items().size());
    }
  }
  m["agents.bundle_items"] = {items, "count"};
  m["auction.compile_ms"] = {p.compile_ms / e, "ms"};
  m["auction.clock_ms"] = {p.clock_ms / e, "ms"};
  m["auction.collect_ms"] = {p.collect_ms / e, "ms"};
  m["auction.bisect_ms"] = {p.bisect_ms / e, "ms"};
  m["auction.audit_ms"] = {p.audit_ms / e, "ms"};
  m["auction.settle_ms"] = {p.settle_ms / e, "ms"};
  m["auction.rounds"] = {p.rounds / e, "count"};
  m["auction.full_collections"] = {p.full / e, "count"};
  m["auction.incremental_collections"] = {p.incremental / e, "count"};
  m["auction.bisection_probes"] = {p.probes / e, "count"};
  m["auction.dot_blocks"] = {p.dot_blocks / e, "count"};
  m["exchange.awards"] = {p.awards / e, "count"};

  // Layers it bypasses: their work is zero by construction.
  for (const char* name :
       {"agents.bidgen_ms", "agents.learn_ms", "reserve.price_ms",
        "exchange.trades_ms", "exchange.settle_pipeline_ms",
        "federation.route_ms", "federation.checkpoint_ms",
        "federation.barrier_ms"}) {
    m[name] = {0.0, "ms"};
  }
  for (const char* name :
       {"exchange.trade_samples", "cluster.util_evals",
        "exchange.units_placed", "exchange.units_refunded",
        "federation.migrations", "twin.replayed_shard_epochs",
        "twin.unreplayable_shard_epochs"}) {
    m[name] = {0.0, "count"};
  }
  m["federation.checkpoint_bytes"] = {0.0, "bytes"};
  m["federation.shard_skew"] = {1.0, "ratio"};

  FinishTrace(options, threaded, single, traced,
              {{"auction.compile", p.compile_ms / e},
               {"auction.clock", (p.clock_ms - p.collect_ms - p.bisect_ms) / e},
               {"auction.collect", p.collect_ms / e},
               {"auction.bisect", p.bisect_ms / e},
               {"auction.settle", p.settle_ms / e}},
              result);
  return result;
}

}  // namespace planetbench
