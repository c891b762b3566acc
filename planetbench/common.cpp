#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench.h"
#include "common/rng.h"

namespace planetbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::string JoinMs(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, "%s%.1f", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

void Digest::Bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t EpisodeSeed(std::uint64_t seed, int episode) {
  if (episode == 0) return seed;
  return pm::SplitMix64(seed + 0x9e3779b97f4a7c15ULL *
                                   static_cast<std::uint64_t>(episode))
      .Next();
}

void RunEpisodes(const Options& options, double world_seconds,
                 long long bidders_per_epoch,
                 const std::function<Episode(std::uint64_t)>& episode,
                 RunResult& result) {
  const int worlds = std::max(
      kMinEpisodes, static_cast<int>(std::lround(options.seconds /
                                                 world_seconds)));
  Segment all;
  std::vector<double> setup_s;
  std::uint64_t digest = 0;
  double peak_rss_mb = 0.0;
  for (int i = 0; i < worlds; ++i) {
    const Episode e = episode(EpisodeSeed(options.seed, i));
    const Segment& seg = e.segment;
    if (i == 0) {
      digest = seg.digests.at(kDigestEpochs - 1);
      peak_rss_mb = PeakRssMb();
    }
    setup_s.push_back(e.setup_s);
    all.epoch_ms.insert(all.epoch_ms.end(), seg.epoch_ms.begin(),
                        seg.epoch_ms.end());
    all.epoch_cpu_ms.insert(all.epoch_cpu_ms.end(), seg.epoch_cpu_ms.begin(),
                            seg.epoch_cpu_ms.end());
    result.notes.push_back("world " + std::to_string(i) + ": set-up " +
                           std::to_string(e.setup_s) + " s, peak RSS " +
                           std::to_string(PeakRssMb()) + " MB, epoch ms " +
                           JoinMs(seg.epoch_ms));
  }
  auto& m = result.metrics;
  const double epoch_ms = all.MedianEpochMs();
  m["setup_s"] = {Median(setup_s), "s"};
  m["epoch_ms"] = {epoch_ms, "ms"};
  m["epoch_cpu_ms"] = {Median(all.epoch_cpu_ms), "ms"};
  m["bidders_per_s"] = {static_cast<double>(bidders_per_epoch) /
                            (epoch_ms / 1e3),
                        "1/s"};
  m["peak_rss_mb"] = {peak_rss_mb, "MB"};
  result.notes.push_back(
      "epoch_ms and epoch_cpu_ms are medians of " +
      std::to_string(all.epochs()) + " epochs over " +
      std::to_string(worlds) + " worlds; setup_s the median of " +
      std::to_string(worlds) + " set-ups; bidders_per_s is " +
      std::to_string(bidders_per_epoch) +
      " bidders per epoch over the median epoch; peak_rss_mb is read "
      "after world 0");
  result.notes.push_back("digest of world 0 after " +
                         std::to_string(kDigestEpochs) +
                         " epochs: " + Hex(digest));
}

void FinishTrace(const Options& options, const Segment& threaded,
                 const Segment& single, const Segment& traced,
                 const std::vector<std::pair<std::string, double>>& self_ms,
                 RunResult& result) {
  auto& m = result.metrics;
  const double single_ms = single.MedianEpochMs();
  const double threaded_ms = threaded.MedianEpochMs();
  m["federation.thread_speedup"] = {
      threaded_ms > 0.0 ? single_ms / threaded_ms : 0.0, "x"};
  const double traced_ms = traced.MedianEpochMs();
  m["federation.trace_overhead"] = {
      single_ms > 0.0 ? traced_ms / single_ms - 1.0 : 0.0, "share"};
  m["epoch.traced_epochs"] = {static_cast<double>(traced.epochs()),
                              "count"};
  result.notes.push_back(
      "threads: " + std::to_string(options.threads) + "-thread epoch " +
      std::to_string(threaded_ms) + " ms (" +
      std::to_string(threaded.epochs()) + " epochs), 1-thread " +
      std::to_string(single_ms) + " ms (" +
      std::to_string(single.epochs()) + " epochs), traced real epoch " +
      std::to_string(traced_ms) + " ms (" +
      std::to_string(traced.epochs()) + " epochs)");

  // The deterministic outputs must not depend on the thread count or on
  // the twin replay: compare the digest chains over their common prefix,
  // and after kDigestEpochs, where the timed run prints its digest.
  const int common = std::min(
      {threaded.epochs(), single.epochs(), traced.epochs()});
  if (common < kDigestEpochs) {
    result.ops.Fail("traced run: a segment ran fewer than " +
                    std::to_string(kDigestEpochs) + " epochs");
  } else {
    std::vector<std::uint64_t> traced_digests = traced.digests;
    if (options.inject == "digest") {
      for (std::uint64_t& d : traced_digests) d ^= 1;
    }
    std::vector<int> checked = {kDigestEpochs};
    if (common != kDigestEpochs) checked.push_back(common);
    for (const int epochs : checked) {
      const std::size_t i = static_cast<std::size_t>(epochs - 1);
      result.notes.push_back("digest after " + std::to_string(epochs) +
                             " epochs: " + Hex(threaded.digests[i]) +
                             " (threaded) " + Hex(single.digests[i]) +
                             " (1 thread) " + Hex(traced_digests[i]) +
                             " (traced)");
      if (threaded.digests[i] != single.digests[i] ||
          traced_digests[i] != single.digests[i]) {
        result.ops.Fail("digest mismatch between the timed and traced runs");
      }
    }
    result.notes.push_back(
        "digest of world 0 after " + std::to_string(kDigestEpochs) +
        " epochs: " + Hex(traced_digests[kDigestEpochs - 1]));
  }

  // Self-time ranking against the traced run's mean real-epoch wall.
  const double wall =
      traced.epochs() > 0
          ? std::accumulate(traced.epoch_ms.begin(), traced.epoch_ms.end(),
                            0.0) /
                traced.epochs()
          : 0.0;
  double attributed = 0.0;
  for (const auto& [name, ms] : self_ms) attributed += ms;
  const double unattributed = wall - attributed;
  m["federation.unattributed_ms"] = {unattributed, "ms"};
  m["federation.unattributed_share"] = {
      wall > 0.0 ? unattributed / wall : 0.0, "share"};
  std::vector<std::pair<std::string, double>> ranked = self_ms;
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::string line = "self time per epoch (wall " + std::to_string(wall) +
                     " ms):";
  for (const auto& [name, ms] : ranked) {
    char buf[96];
    std::snprintf(buf, sizeof buf, " %s %.3f ms (%.1f%%)", name.c_str(), ms,
                  wall > 0.0 ? 100.0 * ms / wall : 0.0);
    line += buf;
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, " unattributed %.3f ms (%.1f%%)",
                unattributed, wall > 0.0 ? 100.0 * unattributed / wall : 0.0);
  result.notes.push_back(line + buf);
  std::string top = "top layers by self time:";
  for (std::size_t i = 0; i < std::min<std::size_t>(3, ranked.size()); ++i) {
    std::snprintf(buf, sizeof buf, " %s %.1f%%", ranked[i].first.c_str(),
                  wall > 0.0 ? 100.0 * ranked[i].second / wall : 0.0);
    top += buf;
  }
  result.notes.push_back(top);
}

}  // namespace planetbench
