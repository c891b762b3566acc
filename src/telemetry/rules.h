// planetmarket: declarative recording rules — the derived-series layer of
// the watchdog plane.
//
// Raw registry values answer "how much so far"; operators (and alert
// rules) need "how much THIS epoch" and "how does it relate". A
// RecordingRule computes one derived series from registry values at the
// RunEpoch barrier — per-epoch rates of monotone counters, ratios of two
// rates, the cross-shard price spread per resource kind — and the
// RuleEngine writes the results back into the MetricsRegistry as gauges
// under a `derived:` name prefix. Derived series therefore ride the
// existing epoch snapshots and the JSON/Prometheus exporters unchanged,
// and the alert engine (alerts.h) reads them like any other metric.
//
// Evaluation happens once per epoch in the federation's single-threaded
// CloseEpochTelemetry phase, BEFORE SnapshotEpoch, so every derived value
// is in the epoch's snapshot and the whole channel stays byte-identical
// across reruns and thread counts. With
// TelemetryConfig::watchdog.recording_rules off no RuleEngine exists and
// the registry document is bit-identical to the pre-watchdog plane.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "telemetry/registry.h"

namespace pm::telemetry {

/// One derived series. Rules are declarative: they name registry inputs
/// and an output, never code.
struct RecordingRule {
  enum class Kind {
    /// Per-epoch delta of a monotone counter: value(now) − value(at the
    /// previous evaluation). Evaluated per label set of `source`, so a
    /// per-shard counter yields a per-shard rate series.
    kCounterRate,
    /// Ratio of two counters' per-epoch deltas
    /// (Δsource / Δdenominator), one output per label set of `source`
    /// (joined with `denominator` on the identical label set; label sets
    /// missing from the denominator read as 0 → ratio 0). A zero
    /// denominator delta yields 0, not NaN — "no awards" is a quiet
    /// epoch, not a storm.
    kRatio,
    /// Cross-shard relative spread of a gauge, grouped by the `kind`
    /// label: (max − min) / max(ε, min) over every shard that carries
    /// the gauge for that kind. One output per kind.
    kSpreadByKind,
    /// Epoch-over-epoch drift of a monotone counter's per-epoch delta:
    /// Δ(this epoch) / Δ(previous epoch), per label set of `source`;
    /// 0 while the previous delta is ≤ 0 (quiet start-up, no spurious
    /// spike on a counter's first active epoch). Keeps its own baseline
    /// state, so a drift rule may watch the same counter as a
    /// kCounterRate rule without stealing its delta (the kCounterRate /
    /// kRatio kinds share one baseline per counter key — two of THOSE
    /// on one source would leave the second reading Δ = 0).
    kDeltaDrift,
  };

  Kind kind = Kind::kCounterRate;
  /// Output metric name; the engine writes it as `derived:<output>` with
  /// the input's labels (kCounterRate/kRatio) or `{kind}` (kSpreadByKind).
  std::string output;
  std::string source;       // Input counter (rates/ratios) or gauge name.
  std::string denominator;  // kRatio only.
};

/// The shipped rule pack (docs/observability.md): per-epoch failure,
/// quarantine and health-flap rates, the refund-storm ratio, and the
/// per-kind cross-shard price spread. Matches what the default alert
/// pack (alerts.h) consumes.
std::vector<RecordingRule> DefaultRecordingRules();

/// The profiler's work-accounting extension pack, appended to the
/// default rules when BOTH telemetry.watchdog.recording_rules and
/// telemetry.profiler.work_accounting are armed: per-epoch work rates
/// (`derived:work_*_rate`), epoch-over-epoch drift factors
/// (`derived:work_*_drift` — the host-noise-immune perf-regression
/// signal), and probes-per-round. Consumed by DefaultWorkAlertRules().
std::vector<RecordingRule> DefaultWorkRecordingRules();

/// Evaluates a rule list against the registry once per epoch.
class RuleEngine {
 public:
  explicit RuleEngine(std::vector<RecordingRule> rules);

  const std::vector<RecordingRule>& rules() const { return rules_; }

  /// Computes every rule from the registry's current values and writes
  /// the derived gauges back. Call exactly once per epoch, before
  /// SnapshotEpoch. Counter baselines update as a side effect (the next
  /// epoch's rates difference against this one).
  void EvaluateEpoch(MetricsRegistry& registry);

 private:
  /// Per-epoch delta of every label set of counter `name`, keyed by the
  /// full canonical key; updates the baseline.
  std::map<std::string, double> CounterDeltas(
      const MetricsRegistry& registry, const std::string& name);

  std::vector<RecordingRule> rules_;
  /// Previous-epoch counter values, keyed by canonical key. One shared
  /// baseline map: counter keys are globally unique.
  std::map<std::string, double> baseline_;
  /// kDeltaDrift's private state (see the Kind doc): previous cumulative
  /// value and previous per-epoch delta, per counter key.
  std::map<std::string, double> drift_baseline_;
  std::map<std::string, double> drift_prev_delta_;
};

}  // namespace pm::telemetry
