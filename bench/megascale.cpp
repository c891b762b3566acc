// Megascale federation benchmark (ROADMAP: "1M bidders,
// 100+ shards, as fast as the hardware allows").
//
// Three sections, written to BENCH_megascale.json:
//   1. pipeline — epoch wall time with FederationConfig::pipelined off
//      vs on, plus the byte-identity gates: pipelined=off must match a
//      plain RunEpoch loop (the pre-pipeline path) and pipelined=on must
//      match pipelined=off, both compared on the telemetry registry's
//      deterministic metrics JSON.
//   2. thread_scaling — epoch wall time across shard-pool sizes, with
//      the metrics JSON asserted byte-identical across thread counts.
//      Stamped invalid_on_single_vcpu (bench_meta.h).
//   3. megascale_epoch — the headline run: B bidders split over S shards
//      (defaults 1,000,000 x 100) clear one epoch; every shard must
//      converge, every award must conserve units (awarded = placed +
//      refunded under refund_unplaced), and a rerun must reproduce the
//      metrics JSON byte for byte.
//
// Usage:
//   bench_megascale [--smoke] [--threads N]
//                   [--bidders B] [--shards S] [--epochs E]
//                   [--chrome-trace-out FILE]
//
// --smoke shrinks every section to CI size and turns the correctness
// gates into the exit code: 2 = a byte-identity gate failed, 3 = the
// megascale epoch failed convergence/conservation. The full run applies
// the same gates (a broken artifact should not look healthy).
//
// --chrome-trace-out arms the profiler's wall-clock channel on the
// pipelined federation of section 1 and writes its chrome://tracing
// JSON (one track per shard plus the federation track with the
// pipeline-window wait/barrier spans). The wall channel never touches
// the deterministic metrics documents, so the byte-identity gates run
// unchanged with it armed — which is itself part of the contract.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_meta.h"
#include "common/thread_pool.h"
#include "federation/federated_exchange.h"
#include "telemetry/telemetry.h"

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ------------------------------------------- federation build helpers --

pm::federation::FederatedExchange BuildFederation(
    std::size_t shards, int bidders_per_shard, std::size_t num_threads,
    bool pipelined, bool wall_profiler = false) {
  std::vector<pm::federation::ShardSpec> specs;
  for (std::size_t k = 0; k < shards; ++k) {
    pm::federation::ShardSpec spec;
    spec.name = "shard-" + std::to_string(k);
    spec.workload.num_teams = bidders_per_shard;
    // Paper-like team-per-cluster density ~3, capped to bound
    // world-generation time at megascale.
    spec.workload.num_clusters =
        std::min(200, std::max(4, bidders_per_shard / 3));
    spec.market.auction.alpha = 0.4;
    spec.market.auction.delta = 0.08;
    spec.market.auction.max_rounds = 30000;
    // Unit conservation per award: awarded = placed + refunded exactly.
    spec.market.settlement.refund_unplaced = true;
    specs.push_back(std::move(spec));
  }
  pm::federation::FederationConfig config;
  config.seed = 20090425;
  config.num_threads = num_threads;
  config.pipelined = pipelined;
  config.telemetry.enabled = true;
  // Wall channel only: spans + chrome trace, never the deterministic
  // metrics document (the byte-identity gates below prove it).
  config.telemetry.profiler.wall_clock = wall_profiler;
  return pm::federation::FederatedExchange(std::move(specs), config);
}

std::string MetricsOf(const pm::federation::FederatedExchange& fed) {
  return fed.telemetry() != nullptr ? fed.telemetry()->MetricsJson() : "";
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads_flag = pm::ParseThreadsFlag(&argc, argv, 0);
  bool smoke = false;
  std::string chrome_trace_out;
  long long bidders = 1000000;
  std::size_t shards = 100;
  int epochs = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--bidders" && i + 1 < argc) {
      bidders = std::atoll(argv[++i]);
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = static_cast<std::size_t>(
          std::max(1, std::atoi(argv[++i])));
    } else if (arg == "--epochs" && i + 1 < argc) {
      epochs = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--chrome-trace-out" && i + 1 < argc) {
      chrome_trace_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_megascale [--smoke] [--threads N] "
                   "[--bidders B] [--shards S] [--epochs E] "
                   "[--chrome-trace-out FILE]\n");
      return 64;
    }
  }
  if (smoke) {
    bidders = std::min<long long>(bidders, 1000);
    shards = std::min<std::size_t>(shards, 4);
  }
  const int per_shard = std::max(
      1, static_cast<int>(bidders / static_cast<long long>(shards)));
  const std::size_t pool_threads =
      threads_flag > 0 ? threads_flag : std::min<std::size_t>(shards, 8);
  int exit_code = 0;

  // 1. Pipeline gates + timing. The three federations are built
  //    identically; only the epoch driver differs.
  const std::size_t gate_shards = smoke ? 4 : std::min<std::size_t>(shards, 16);
  const int gate_bidders = smoke ? 100 : std::min(per_shard, 500);
  const int gate_epochs = smoke ? 2 : std::max(epochs, 3);
  std::printf("pipeline gates: %zu shards x %d bidders, %d epochs...\n",
              gate_shards, gate_bidders, gate_epochs);
  double serial_ms = 0.0, pipelined_ms = 0.0;
  std::string metrics_loop, metrics_off, metrics_on;
  {
    pm::federation::FederatedExchange fed = BuildFederation(
        gate_shards, gate_bidders, pool_threads, false);
    for (int e = 0; e < gate_epochs; ++e) fed.RunEpoch();
    metrics_loop = MetricsOf(fed);
  }
  {
    pm::federation::FederatedExchange fed = BuildFederation(
        gate_shards, gate_bidders, pool_threads, false);
    const auto t0 = Clock::now();
    fed.RunEpochs(gate_epochs);
    serial_ms = MillisSince(t0) / gate_epochs;
    metrics_off = MetricsOf(fed);
  }
  {
    // The chrome trace rides the byte-identity gate run on purpose: if
    // the wall channel perturbed deterministic exports, on_matches_off
    // below would catch it.
    pm::federation::FederatedExchange fed = BuildFederation(
        gate_shards, gate_bidders, pool_threads, true,
        /*wall_profiler=*/!chrome_trace_out.empty());
    const auto t0 = Clock::now();
    fed.RunEpochs(gate_epochs);
    pipelined_ms = MillisSince(t0) / gate_epochs;
    metrics_on = MetricsOf(fed);
    if (!chrome_trace_out.empty()) {
      const std::string trace =
          fed.telemetry()->profiler()->ChromeTraceJson();
      std::FILE* tf = std::fopen(chrome_trace_out.c_str(), "w");
      if (tf == nullptr ||
          std::fwrite(trace.data(), 1, trace.size(), tf) != trace.size()) {
        std::fprintf(stderr, "cannot write %s\n",
                     chrome_trace_out.c_str());
        if (tf != nullptr) std::fclose(tf);
        return 74;
      }
      std::fclose(tf);
      std::printf("  wrote %s (%zu bytes)\n", chrome_trace_out.c_str(),
                  trace.size());
    }
  }
  const bool off_matches_loop = metrics_off == metrics_loop;
  const bool on_matches_off = metrics_on == metrics_off;
  if (!off_matches_loop) {
    std::fprintf(stderr,
                 "FAIL: RunEpochs(pipelined=off) diverged byte-wise from "
                 "the plain RunEpoch loop\n");
    exit_code = 2;
  }
  if (!on_matches_off) {
    std::fprintf(stderr,
                 "FAIL: pipelined=on metrics diverged byte-wise from "
                 "pipelined=off\n");
    exit_code = 2;
  }
  std::printf("  epoch ms: serial %.1f, pipelined %.1f (%.2fx)\n",
              serial_ms, pipelined_ms,
              pipelined_ms > 0.0 ? serial_ms / pipelined_ms : 0.0);

  // 2. Thread scaling of the pipelined epoch loop, metrics asserted
  //    byte-identical across thread counts.
  std::vector<std::pair<std::size_t, double>> scaling;
  {
    std::vector<std::size_t> counts = {1, 2, 4, 8};
    if (threads_flag > 0) counts = {threads_flag};
    if (smoke) counts.resize(std::min<std::size_t>(counts.size(), 2));
    std::string metrics_first;
    for (const std::size_t t : counts) {
      pm::federation::FederatedExchange fed = BuildFederation(
          gate_shards, gate_bidders, t, true);
      const auto t0 = Clock::now();
      fed.RunEpochs(gate_epochs);
      scaling.emplace_back(t, MillisSince(t0) / gate_epochs);
      const std::string metrics = MetricsOf(fed);
      if (metrics_first.empty()) {
        metrics_first = metrics;
      } else if (metrics != metrics_first) {
        std::fprintf(stderr,
                     "FAIL: metrics JSON diverged across thread counts "
                     "(%zu threads)\n",
                     t);
        exit_code = 2;
      }
    }
  }
  for (const auto& [t, ms] : scaling) {
    std::printf("  threads=%zu epoch %.1f ms\n", t, ms);
  }

  // 3. The megascale epoch itself.
  std::printf("megascale epoch: %lld bidders over %zu shards "
              "(%d per shard)...\n",
              static_cast<long long>(per_shard) * shards, shards,
              per_shard);
  double mega_epoch_ms = 0.0;
  bool mega_converged = true;
  bool mega_conserved = true;
  bool mega_reproducible = true;
  long long mega_rounds = 0;
  {
    pm::federation::FederatedExchange fed = BuildFederation(
        shards, per_shard, pool_threads, true);
    const auto t0 = Clock::now();
    fed.RunEpochs(epochs);
    mega_epoch_ms = MillisSince(t0) / epochs;
    const pm::federation::FederationReport& report = fed.History().back();
    for (const pm::federation::ShardEpochSummary& shard : report.shards) {
      mega_converged = mega_converged && shard.report.converged;
      mega_rounds += shard.report.rounds;
      for (const pm::exchange::AwardRecord& award : shard.report.awards) {
        if (award.outcome.quota_only) continue;
        const double gap = std::abs(award.outcome.awarded_units -
                                    (award.outcome.placed_units +
                                     award.outcome.refunded_units));
        mega_conserved = mega_conserved && gap <= 1e-6;
      }
    }
    const std::string metrics_a = MetricsOf(fed);
    // Rerun at a different pool size: byte-identical metrics or bust.
    pm::federation::FederatedExchange fed2 = BuildFederation(
        shards, per_shard, pool_threads == 1 ? 2 : 1, true);
    fed2.RunEpochs(epochs);
    mega_reproducible = MetricsOf(fed2) == metrics_a;
  }
  if (!mega_converged || !mega_conserved || !mega_reproducible) {
    std::fprintf(stderr,
                 "FAIL: megascale epoch converged=%d conserved=%d "
                 "reproducible=%d\n",
                 mega_converged ? 1 : 0, mega_conserved ? 1 : 0,
                 mega_reproducible ? 1 : 0);
    exit_code = 3;
  }
  std::printf("  epoch %.0f ms, %lld auction rounds, converged=%s, "
              "conserved=%s, reproducible=%s\n",
              mega_epoch_ms, mega_rounds, mega_converged ? "yes" : "NO",
              mega_conserved ? "yes" : "NO",
              mega_reproducible ? "yes" : "NO");

  // ------------------------------------------------------------- JSON --
  std::FILE* f = std::fopen("BENCH_megascale.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_megascale.json\n");
    return exit_code != 0 ? exit_code : 74;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"megascale\",\n"
               "  \"metadata\": {\n"
               "    \"smoke\": %s,\n"
               "    \"bidders\": %lld,\n"
               "    \"shards\": %zu,\n"
               "    \"bidders_per_shard\": %d,\n"
               "    \"epochs\": %d,\n"
               "    \"host\": %s\n  },\n",
               smoke ? "true" : "false",
               static_cast<long long>(per_shard) * shards, shards,
               per_shard, epochs, pm::HostMetadataJson().c_str());
  std::fprintf(f,
               "  \"pipeline\": {\n"
               "    \"section_meta\": %s,\n"
               "    \"shards\": %zu,\n"
               "    \"bidders_per_shard\": %d,\n"
               "    \"epochs\": %d,\n"
               "    \"epoch_ms_serial\": %.3f,\n"
               "    \"epoch_ms_pipelined\": %.3f,\n"
               "    \"overlap_speedup\": %.3f,\n"
               "    \"off_matches_pre_pipeline_loop\": %s,\n"
               "    \"on_matches_off\": %s\n  },\n",
               pm::SectionHostJson(/*needs_parallelism=*/true).c_str(),
               gate_shards, gate_bidders, gate_epochs, serial_ms,
               pipelined_ms,
               pipelined_ms > 0.0 ? serial_ms / pipelined_ms : 0.0,
               off_matches_loop ? "true" : "false",
               on_matches_off ? "true" : "false");
  std::fprintf(f, "  \"thread_scaling_meta\": %s,\n",
               pm::SectionHostJson(/*needs_parallelism=*/true).c_str());
  std::fprintf(f, "  \"thread_scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    std::fprintf(f, "    {\"threads\": %zu, \"epoch_ms\": %.3f}%s\n",
                 scaling[i].first, scaling[i].second,
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"megascale_epoch\": {\n"
               "    \"bidders\": %lld,\n"
               "    \"shards\": %zu,\n"
               "    \"epoch_ms\": %.1f,\n"
               "    \"auction_rounds\": %lld,\n"
               "    \"all_converged\": %s,\n"
               "    \"conservation_ok\": %s,\n"
               "    \"metrics_reproducible\": %s\n  }\n}\n",
               static_cast<long long>(per_shard) * shards, shards,
               mega_epoch_ms, mega_rounds,
               mega_converged ? "true" : "false",
               mega_conserved ? "true" : "false",
               mega_reproducible ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_megascale.json\n");
  return exit_code;
}
