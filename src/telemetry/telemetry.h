// planetmarket: the telemetry plane's front door.
//
// TelemetryConfig is the compiled gate: with `enabled == false` (the
// default) no Telemetry object exists anywhere — the federation holds a
// null pointer, every instrumentation site is a single pointer test, and
// behavior plus every report/bench output is bit-identical to the
// pre-telemetry system (asserted by tests/telemetry_test.cpp and the
// bench_telemetry_overhead smoke).
//
// With the gate on, one Telemetry object per federation owns the three
// subsystems:
//
//   MetricsRegistry — deterministic counters/gauges/histograms with
//     {shard, kind, phase} labels, per-epoch logical-clock snapshots,
//     JSON + Prometheus exporters (registry.h);
//   BidTracer       — bid-lifecycle spans from submit to settlement or
//     refund (trace.h);
//   FlightRecorder  — per-shard ring of recent events, dumped by the
//     epoch supervisor whenever it contains a shard failure
//     (flight_recorder.h).
//
// All writes happen in the federation's single-threaded epoch sections
// (the instrumentation contract of federated_exchange.cpp), so every
// export is byte-identical across reruns and thread counts.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/alerts.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/profiler.h"
#include "telemetry/registry.h"
#include "telemetry/rules.h"
#include "telemetry/trace.h"

namespace pm::telemetry {

/// The watchdog plane's sub-gates (only read when the telemetry master
/// gate is on). Both default OFF: telemetry-on-watchdog-off produces a
/// metrics/report/trace byte stream bit-identical to the pre-watchdog
/// plane — no `derived:` series, no watchdog gauges, no alert timeline
/// (asserted by tests/telemetry_test.cpp and bench_telemetry_overhead).
struct WatchdogConfig {
  /// Evaluate recording rules (rules.h) each epoch, writing `derived:`
  /// gauges into the registry. Also arms the watchdog's extra raw
  /// instrumentation (per-kind clearing-price gauges, awarded-dollars
  /// counters, health gauges, the treasury conservation residual) that
  /// the rules and the console consume.
  bool recording_rules = false;

  /// Evaluate alert rules (alerts.h) each epoch, after the recording
  /// rules. The default alert pack watches `derived:` series, so arming
  /// alerts without recording_rules leaves those rules with no instances
  /// (absence/raw-threshold rules still work).
  bool alerts = false;
};

/// The gate plus sub-feature toggles (only read when `enabled`).
struct TelemetryConfig {
  /// Master gate. Off: no telemetry object is constructed, no
  /// instrumentation site does more than one pointer comparison, and all
  /// outputs are bit-identical to a build without the telemetry plane.
  bool enabled = false;

  /// Bid-lifecycle span emission (submit/route/auction/settle/refund).
  bool trace_bids = true;

  /// Per-shard event rings + supervisor containment dumps.
  bool flight_recorder = true;

  /// Ring capacity per shard.
  std::size_t flight_recorder_capacity = 128;

  /// The watchdog plane (recording rules + alerts), both gates off by
  /// default. `WatchdogConfig{true, true}` arms the shipped packs.
  WatchdogConfig watchdog;

  /// The phase profiler (profiler.h): deterministic work accounting
  /// and/or wall-clock phase spans + chrome-trace export. Both channels
  /// off by default; off is bit-identical (the fourth arm of
  /// bench_telemetry_overhead byte-compares it). Arming work_accounting
  /// together with the watchdog sub-gates appends the `derived:work_*`
  /// rules and drift alerts to the shipped packs.
  ProfilerConfig profiler;
};

/// One federation's telemetry plane.
class Telemetry {
 public:
  Telemetry(TelemetryConfig config, std::vector<std::string> shard_names);

  const TelemetryConfig& config() const { return config_; }
  const std::vector<std::string>& shard_names() const {
    return shard_names_;
  }

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  BidTracer& tracer() { return tracer_; }
  const BidTracer& tracer() const { return tracer_; }
  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }
  /// Null when the corresponding watchdog sub-gate is off.
  RuleEngine* rule_engine() { return rules_.get(); }
  const RuleEngine* rule_engine() const { return rules_.get(); }
  AlertEngine* alerts() { return alerts_.get(); }
  const AlertEngine* alerts() const { return alerts_.get(); }
  /// Null unless a ProfilerConfig channel is armed.
  PhaseProfiler* profiler() { return profiler_.get(); }
  const PhaseProfiler* profiler() const { return profiler_.get(); }

  /// Replaces the default rule/alert packs (tests, custom deployments).
  /// Only legal when the corresponding sub-gate is armed.
  void SetRecordingRules(std::vector<RecordingRule> rules);
  void SetAlertRules(std::vector<AlertRule> rules);

  /// Runs the watchdog for epoch `epoch`: recording rules first (derived
  /// gauges land in the registry), then the alert pass. Call once per
  /// epoch at the T2 barrier, BEFORE the registry's SnapshotEpoch, so
  /// derived series ride the snapshot. Returns this epoch's alert
  /// transitions (already in the timeline) for mirroring; empty when the
  /// watchdog is off.
  std::vector<AlertTransition> EvaluateWatchdog(int epoch);

  /// Emits a span. Callers attach attributes on the returned reference,
  /// then MirrorSpan() it into the shard ring if it should be visible to
  /// the flight recorder.
  Span& EmitSpan(std::uint64_t trace, std::string name, int epoch,
                 int shard);

  /// Records a shard-level (non-span) event into the shard's ring.
  void RecordEvent(std::size_t shard, int epoch, std::string line);

  /// Re-renders an already-emitted span into its shard ring — used when
  /// attributes were attached after EmitSpan.
  void MirrorSpan(const Span& span);

  // ------------------------------------------------------------- exports --
  /// Deterministic metrics document.
  std::string MetricsJson() const;

  /// Prometheus-style exposition of the registry.
  std::string PrometheusText() const;

  /// Deterministic trace document: every span plus the retained
  /// flight-recorder dumps.
  std::string TraceJson() const;

  /// Deterministic alert-timeline document; `{"alerts": []}` shape even
  /// when the alert gate is off, so sinks need no special case.
  std::string AlertTimelineJson() const;

 private:
  TelemetryConfig config_;
  std::vector<std::string> shard_names_;
  MetricsRegistry registry_;
  BidTracer tracer_;
  FlightRecorder recorder_;
  std::unique_ptr<RuleEngine> rules_;    // watchdog.recording_rules
  std::unique_ptr<AlertEngine> alerts_;  // watchdog.alerts
  std::unique_ptr<PhaseProfiler> profiler_;  // profiler.{work,wall}
};

}  // namespace pm::telemetry
