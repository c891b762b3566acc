// Scenario CLI: run one named scenario and emit its metrics JSON.
//
//   $ ./example_scenario_runner --scenario shard-outage [--seed S]
//         [--epochs E] [--threads T] [--out FILE] [--quiet]
//         [--faults drop=P,dup=P,delay=N]
//         [--metrics-out FILE] [--trace-out FILE] [--prom-out FILE]
//         [--alerts-out FILE] [--console]
//         [--profile] [--chrome-trace-out FILE]
//   $ ./example_scenario_runner --list
//
// --metrics-out / --trace-out / --prom-out arm the federation's
// telemetry plane and write its deterministic exports: the
// metrics-registry JSON document, the trace document (bid-lifecycle
// spans + retained flight-recorder dumps), and the Prometheus text
// exposition of the registry. --alerts-out and --console additionally
// arm the watchdog plane (recording rules + the default alert pack):
// the former writes the alert-timeline JSON, the latter renders the
// per-epoch operator console (per-shard health, clearing prices,
// spread, refund rate, firing alerts) to stdout after the run. All are
// byte-identical for identical (scenario, seed, epochs, faults) runs at
// any --threads. An unwritable output path exits 2.
//
// --profile arms the profiler's deterministic work-accounting channel
// (fed_work_* counters in the metrics document; derived:work_* rules +
// drift alerts when the watchdog is also armed). --chrome-trace-out
// arms the wall-clock channel and writes a chrome://tracing JSON of the
// run (one track per shard plus the federation track, whose `epoch`
// spans carry each epoch's wall time) — load it at chrome://tracing or
// ui.perfetto.dev. The wall channel never touches the deterministic
// documents (docs/observability.md).
//
// --faults runs every shard behind pm::net proxy nodes on a lossy wire
// (drop/duplicate probabilities, stale-redelivery window) with the epoch
// supervisor armed, overriding whatever the scenario configured. The
// retry layer makes the run bit-identical to its own reruns; retry
// exhaustion (a link going down for good) is a containment failure.
//
// The JSON is byte-identical for identical (scenario, seed, epochs,
// faults) — the determinism contract of docs/scenarios.md — so piping
// two runs through `diff` is a valid reproducibility check. Exit
// status: 0 on success (including runs too short for SLO evaluation),
// 1 when an evaluated SLO failed, 2 on usage errors, 3 when containment
// failed (an uncontained fault escaped the planet epoch).
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/check.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "telemetry/console.h"
#include "telemetry/telemetry.h"

namespace {

int Usage() {
  std::cerr << "usage: example_scenario_runner --scenario NAME "
               "[--seed S] [--epochs E] [--threads T] [--out FILE] "
               "[--quiet] [--faults drop=P,dup=P,delay=N] "
               "[--metrics-out FILE] [--trace-out FILE] "
               "[--prom-out FILE] [--alerts-out FILE] [--console] "
               "[--profile] [--chrome-trace-out FILE]\n"
               "       example_scenario_runner --list\n";
  return 2;
}

/// Writes `content` to `path`; an unwritable path (missing directory,
/// permission, disk) exits 2 — the one artifact-sink policy every
/// --*-out flag shares. Echoes "wrote PATH" unless quiet.
void WriteFileOrExit(const std::string& path, const std::string& content,
                     bool quiet) {
  std::ofstream file(path);
  file << content;
  file.flush();
  if (!file.good()) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(2);
  }
  if (!quiet) std::cerr << "wrote " << path << "\n";
}

/// Parses "drop=P,dup=P,delay=N" (any subset, any order) into a
/// FaultConfig; returns false on malformed input.
bool ParseFaults(const std::string& text, pm::net::FaultConfig& faults) {
  std::istringstream tokens(text);
  std::string token;
  while (std::getline(tokens, token, ',')) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (value.empty()) return false;
    if (key == "drop") {
      faults.drop = std::atof(value.c_str());
    } else if (key == "dup") {
      faults.duplicate = std::atof(value.c_str());
    } else if (key == "delay") {
      faults.delay_window = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return faults.drop >= 0.0 && faults.drop < 1.0 &&
         faults.duplicate >= 0.0 && faults.duplicate <= 1.0 &&
         faults.delay_window >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string out;
  std::string metrics_out;
  std::string trace_out;
  std::string prom_out;
  std::string alerts_out;
  std::string chrome_trace_out;
  pm::scenario::RunnerConfig config;
  pm::net::FaultConfig faults;
  bool quiet = false;
  bool console = false;
  bool profile = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      for (const std::string& s : pm::scenario::ScenarioNames()) {
        const pm::scenario::ScenarioSpec& spec =
            pm::scenario::FindScenario(s);
        std::cout << s << " — " << spec.description << "\n";
      }
      return 0;
    } else if (arg == "--scenario") {
      const char* v = next();
      if (v == nullptr) return Usage();
      name = v;
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage();
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--epochs") {
      const char* v = next();
      if (v == nullptr) return Usage();
      config.epochs = std::atoi(v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return Usage();
      config.num_threads = static_cast<std::size_t>(std::atoi(v));
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage();
      out = v;
    } else if (arg == "--faults") {
      const char* v = next();
      if (v == nullptr || !ParseFaults(v, faults)) return Usage();
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return Usage();
      metrics_out = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return Usage();
      trace_out = v;
    } else if (arg == "--prom-out") {
      const char* v = next();
      if (v == nullptr) return Usage();
      prom_out = v;
    } else if (arg == "--alerts-out") {
      const char* v = next();
      if (v == nullptr) return Usage();
      alerts_out = v;
    } else if (arg == "--chrome-trace-out") {
      const char* v = next();
      if (v == nullptr) return Usage();
      chrome_trace_out = v;
    } else if (arg == "--console") {
      console = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return Usage();
    }
  }
  if (name.empty()) return Usage();

  bool known = false;
  for (const std::string& s : pm::scenario::ScenarioNames()) {
    known = known || s == name;
  }
  if (!known) {
    std::cerr << "unknown scenario '" << name << "'; --list shows them\n";
    return 2;
  }

  pm::scenario::ScenarioSpec spec = pm::scenario::FindScenario(name);
  const bool want_watchdog = !alerts_out.empty() || console;
  const bool want_telemetry = !metrics_out.empty() ||
                              !trace_out.empty() || !prom_out.empty() ||
                              want_watchdog || profile ||
                              !chrome_trace_out.empty();
  if (want_telemetry) spec.federation.telemetry.enabled = true;
  if (want_watchdog) {
    spec.federation.telemetry.watchdog.recording_rules = true;
    spec.federation.telemetry.watchdog.alerts = true;
  }
  if (profile) {
    spec.federation.telemetry.profiler.work_accounting = true;
  }
  if (!chrome_trace_out.empty()) {
    spec.federation.telemetry.profiler.wall_clock = true;
  }
  if (faults.Enabled()) {
    // Lossy-wire mode: every shard clears through proxy nodes over the
    // faulty transport, with the supervisor armed so a link going down
    // for good is contained rather than fatal. The distributed path
    // needs intra-round bisection off (docs/distributed.md).
    spec.federation.wire_faults = faults;
    if (spec.federation.proxy_nodes_per_shard == 0) {
      spec.federation.proxy_nodes_per_shard = 2;
    }
    spec.federation.supervisor.enabled = true;
    for (pm::federation::ShardSpec& shard : spec.shards) {
      shard.market.auction.intra_round_bisection = false;
    }
  }

  pm::scenario::ScenarioRunner runner(std::move(spec), config);
  pm::scenario::ScenarioMetrics metrics;
  try {
    metrics = runner.Run();
  } catch (const pm::CheckFailure& e) {
    // An uncontained fault escaped the planet epoch — the supervisor
    // failed to hold the failure domain. Distinct exit code so harnesses
    // can tell containment failures from SLO failures.
    std::cerr << "containment failure: " << e.what() << "\n";
    return 3;
  }
  const std::string json = metrics.ToJson();

  if (!out.empty()) {
    WriteFileOrExit(out, json, quiet);
  } else {
    std::cout << json;
  }

  if (want_telemetry) {
    const pm::telemetry::Telemetry* telemetry =
        runner.exchange().telemetry();
    PM_CHECK(telemetry != nullptr);
    if (!metrics_out.empty()) {
      WriteFileOrExit(metrics_out, telemetry->MetricsJson(), quiet);
    }
    if (!trace_out.empty()) {
      WriteFileOrExit(trace_out, telemetry->TraceJson(), quiet);
    }
    if (!prom_out.empty()) {
      WriteFileOrExit(prom_out, telemetry->PrometheusText(), quiet);
    }
    if (!alerts_out.empty()) {
      WriteFileOrExit(alerts_out, telemetry->AlertTimelineJson(), quiet);
    }
    if (!chrome_trace_out.empty()) {
      PM_CHECK(telemetry->profiler() != nullptr);
      WriteFileOrExit(chrome_trace_out,
                      telemetry->profiler()->ChromeTraceJson(), quiet);
    }
    if (console) {
      std::cout << pm::telemetry::RenderConsole(*telemetry);
    }
  }
  if (!quiet) {
    std::cerr << "scenario " << name << ": " << metrics.epochs
              << " epochs, refunds $" << metrics.refund_total
              << ", placement failures " << metrics.placement_failures
              << ", SLOs "
              << (metrics.slos_evaluated
                      ? (metrics.slo_pass ? "PASS" : "FAIL")
                      : "skipped (run too short)")
              << "\n";
    for (const pm::scenario::SloResult& slo : metrics.slos) {
      std::cerr << "  [" << (slo.pass ? "ok" : "FAIL") << "] " << slo.name
                << ": " << slo.detail << "\n";
    }
  }
  return metrics.slos_evaluated && !metrics.slo_pass ? 1 : 0;
}
