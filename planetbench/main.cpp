// planet_bench: the benchmark binary (run it through run.py, which builds
// it first).
//
//   planet_bench --workload planet-epoch|planet-economy|dense-clock
//                --seed N --seconds S --trace 0|1
//                [--size tiny] [--inject WHAT]
//
// --inject forces one check to fail, for the benchmark's own tests:
// fidelity (a twin mismatch), digest (a traced-run digest mismatch),
// converge (one clock round per auction), refund (unplaced units are not
// refunded, breaking awarded == placed + refunded).
//
// Prints human-readable lines, then one JSON object as the last line of
// standard output. Exits 1 when any correctness, fidelity or digest check
// fails (the JSON then says "correct": false), 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "planet_bench: %s\nusage: planet_bench --workload W --seed N "
               "--seconds S --trace 0|1 [--size tiny] "
               "[--inject fidelity|digest|converge|refund]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  planetbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace is 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--size") {
      if (value != "tiny") return Usage("--size takes only tiny");
      options.tiny = true;
    } else if (arg == "--inject") {
      if (value != "fidelity" && value != "digest" && value != "converge" &&
          value != "refund") {
        return Usage("--inject is fidelity, digest, converge or refund");
      }
      options.inject = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }

  planetbench::RunResult result;
  try {
    if (options.workload == "planet-epoch" ||
        options.workload == "planet-economy") {
      result = planetbench::RunFederationWorkload(options);
    } else if (options.workload == "dense-clock") {
      result = planetbench::RunDenseClock(options);
    } else {
      return Usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    // A SYSTEM-audit violation or a broken invariant inside the library
    // throws; the run is then incorrect, not a benchmark crash.
    result.ops.Fail(std::string("exception: ") + e.what());
    if (result.ops.attempted == 0) result.ops.attempted = 1;
    ++result.ops.failed;
  }

  for (auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.ops.Fail(name + " is not a finite number");
      metric.value = 0.0;
    }
  }
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& error : result.ops.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.ops.Correct() ? "true" : "false",
              std::max(1LL, result.ops.attempted), result.ops.failed);
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return result.ops.Correct() && result.ops.failed == 0 ? 0 : 1;
}
