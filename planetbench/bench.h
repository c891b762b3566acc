// planetbench: shared declarations of the planet-epoch benchmark.
//
// The benchmark drives the library only through its public API. Timed
// runs measure whole epochs (one planet epoch, or one auction clearing
// on dense-clock); traced runs time the benchmark's own calls into each
// layer's public functions and read the spans and counters the program
// already reports. See README.md for the workloads and the layer map.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace planetbench {

/// Command-line options after parsing.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// The program's worker pool: min(4, nproc) threads.
  std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  bool tiny = false;          // Test size: every workload in well under 1 s.
  std::string inject;  // Forces one check to fail (see main.cpp).
};

/// Wall and CPU clocks.
double NowMs();
double CpuMs();       // Process user + system CPU (getrusage).
double PeakRssMb();   // Process peak resident set (getrusage).

double Median(std::vector<double> values);

/// "12.3 45.6 ..." — per-epoch times for the human-readable report.
std::string JoinMs(const std::vector<double>& values);

/// FNV-1a over the deterministic outputs of a run.
class Digest {
 public:
  void Bytes(const void* data, std::size_t size);
  void U64(std::uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) { Bytes(&v, sizeof v); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string Hex(std::uint64_t v);

/// Operations attempted and failed (one operation is one shard auction,
/// or one clearing on dense-clock), plus the first failure messages.
struct Ops {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;  // Correctness failures of any kind.

  void Fail(const std::string& why) {
    if (errors.size() < 8) errors.push_back(why);
  }
  bool Correct() const { return errors.empty(); }
};

/// One timed segment: epochs run back to back from one client thread.
struct Segment {
  std::vector<double> epoch_ms;
  std::vector<double> epoch_cpu_ms;
  /// Digest of the deterministic outputs after each epoch: a running
  /// chain on the federated workloads, each clearing's own on dense-clock.
  std::vector<std::uint64_t> digests;

  int epochs() const { return static_cast<int>(epoch_ms.size()); }
  double MedianEpochMs() const { return Median(epoch_ms); }
};

/// One world of a timed run: its set-up time and its epochs.
struct Episode {
  double setup_s = 0.0;
  Segment segment;
};

/// One reported metric: its value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main().
struct RunResult {
  Ops ops;
  std::map<std::string, Metric> metrics;  // Printed in the JSON.
  std::vector<std::string> notes;         // Human-readable lines.
};

/// The determinism digest printed by a timed run covers this many epochs
/// of its first world (every episode runs at least that many).
inline constexpr int kDigestEpochs = 3;

/// A timed run sets up at least this many worlds.
inline constexpr int kMinEpisodes = 3;

/// Seed of a run's i-th world; world 0 uses the run's seed itself.
std::uint64_t EpisodeSeed(std::uint64_t seed, int episode);

/// The timed run: a fixed number of episodes back to back. Each one sets
/// up a fresh world from its seed (timed as one setup_s sample) and runs
/// a fixed number of epochs on it, so a run measures the same work on
/// every commit. `world_seconds` is how long one episode takes on the
/// reference host (4 vCPUs); options.seconds / world_seconds episodes
/// run, at least kMinEpisodes. Fills the end-to-end metrics: bidders_per_s
/// is `bidders_per_epoch` over the median epoch, and peak_rss_mb
/// is read after the first world, so later worlds' allocator reuse does
/// not blur it.
void RunEpisodes(const Options& options, double world_seconds,
                 long long bidders_per_epoch,
                 const std::function<Episode(std::uint64_t)>& episode,
                 RunResult& result);

RunResult RunFederationWorkload(const Options& options);
RunResult RunDenseClock(const Options& options);

/// Shared traced-run epilogue: thread speedup, digest agreement, trace
/// overhead and the self-time ranking. `threaded` ran on the full worker
/// pool and `single` on one thread, both untraced; `traced` is the
/// one-thread traced segment, whose epoch_ms holds only the real epochs'
/// wall. `self_ms` is each layer's mean self time per traced epoch.
void FinishTrace(const Options& options, const Segment& threaded,
                 const Segment& single, const Segment& traced,
                 const std::vector<std::pair<std::string, double>>& self_ms,
                 RunResult& result);

}  // namespace planetbench
