// Declarative SLO rules and the AlertRecord they (and the drift
// detector) emit.
//
// An SloRule is a per-window budget over one windowed series: compare the
// window mean against a threshold (above or below) and emit one
// AlertRecord per firing window. evaluate_drift() runs a Page–Hinkley
// detector over window means and latches the first firing per matched
// series.
//
// Everything here is deterministic: rules evaluate in declaration order,
// series in snapshot (name, labels) order, windows ascending — so
// alerts_to_json() output is byte-identical across worker-thread counts
// whenever the input snapshots are (which they are; see obs/windowed.h).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/drift.h"
#include "obs/windowed.h"

namespace reshape::obs {

/// One fired alert: which rule, on which series, in which window, how far
/// over budget. `kind` is "drift" or "slo"; `detail` names the detector
/// ("page-hinkley") or the comparison ("mean>75"). Every alert carries
/// the firing window's index and sim-time bounds.
struct AlertRecord {
  std::string rule;
  std::string kind;
  std::string detail;
  std::string series;
  LabelSet labels;
  std::int64_t window = -1;
  std::int64_t window_start_us = 0;
  std::int64_t window_end_us = 0;
  double threshold = 0.0;
  double observed = 0.0;
};

/// Stable JSON array of alerts (fixed key order, util::json_number
/// formatting): equal alerts serialize to equal strings.
[[nodiscard]] std::string alerts_to_json(std::span<const AlertRecord> alerts);

enum class SloComparison : std::uint8_t { kAbove, kBelow };

/// A per-window budget over the mean of one windowed series.
struct SloRule {
  std::string name;    // alert identity, e.g. "deadline-miss-budget"
  std::string series;  // windowed series to evaluate
  LabelSet labels;     // subset filter over series labels
  SloComparison comparison = SloComparison::kAbove;
  double threshold = 0.0;
  std::uint64_t min_count = 1;  // skip windows with fewer observations
};

/// Evaluates every rule over every matching series, window by window; one
/// AlertRecord per firing window.
[[nodiscard]] std::vector<AlertRecord> evaluate_slo(
    std::span<const SloRule> rules, const WindowedSnapshot& snapshot);

/// Runs a Page–Hinkley detector over the window means of every series
/// matching a rule (windows ascending, a fresh detector per series) and
/// latches the first firing into one AlertRecord with the detector
/// statistic as `observed`. A detector that never crosses emits nothing.
[[nodiscard]] std::vector<AlertRecord> evaluate_drift(
    std::span<const DriftRule> rules, const WindowedSnapshot& snapshot);

}  // namespace reshape::obs
