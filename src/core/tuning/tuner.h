// ParameterTuner: the constraint-driven replacement for the one-shot
// rule engine.
//
// recommend_parameters() picks Table V's point once and never looks at
// the deployment; the tuner instead enumerates a CandidateSpace against
// the defender's own size profile, measures every candidate on the arena
// scenario with the CandidateEvaluator (epochs-until-adaptive-recovery,
// deadline-miss rate and access-delay percentiles under arbitration,
// byte overhead), filters by the hard budgets, Pareto-ranks the
// survivors, and selects one point — the TunedConfiguration the AP then
// pushes to clients through net::config_protocol.
//
// Sweeps run candidate × shard cells on the shared runtime:: worker pool
// with the same keyed-fork streams as every campaign engine, so a
// TuningReport is bit-identical for any thread count and serializes to a
// stable JSON (the BENCH_tuning.json trajectory file).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/tuning/evaluator.h"
#include "obs/metrics.h"
#include "runtime/grid_engine.h"

namespace reshape::core::tuning {

/// One candidate's entry in the report.
struct CandidateReport {
  TunedConfiguration config;
  CandidateMetrics metrics{};
  bool within_budgets = false;
  bool on_pareto_front = false;  // among budget-passing candidates
  bool selected = false;
};

/// One scored contiguous slice of the candidate × shard grid.
using TuningRangeOutcome = runtime::RangeOutcome<CandidateShardOutcome>;

/// Everything a tuning sweep produced, in enumeration order.
struct TuningReport {
  std::uint64_t seed = 0;
  std::size_t shards = 0;
  double cadence_seconds = 0.0;       // the adversary-strength knob
  double adaptive_cross_percent = 0.0;
  std::vector<CandidateReport> candidates;
  std::optional<std::size_t> selected_index;

  /// The selected candidate; throws std::out_of_range when no candidate
  /// passed the budgets.
  [[nodiscard]] const CandidateReport& selected() const;

  /// The entry whose config label equals `name`; throws
  /// std::out_of_range for unknown names.
  [[nodiscard]] const CandidateReport& candidate(const std::string& name) const;

  /// Stable JSON export (fixed key order, locale-independent numbers) —
  /// equal reports serialize to equal strings.
  [[nodiscard]] std::string to_json() const;
};

/// Enumerates, measures, filters, ranks, selects. run(), run_range(),
/// fold() and the telemetry accessors come from runtime::GridEngine; the
/// profiler also carries the evaluator's streaming / arbitration /
/// adaptive laps.
class ParameterTuner
    : public runtime::GridEngine<ParameterTuner, CandidateShardOutcome,
                                 TuningReport> {
 public:
  explicit ParameterTuner(TunerSpec spec);

  // The evaluator holds a reference into spec_; moving or copying the
  // tuner would leave it dangling.
  ParameterTuner(const ParameterTuner&) = delete;
  ParameterTuner& operator=(const ParameterTuner&) = delete;

  /// Profiles the bootstrap corpus and enumerates the candidate space
  /// (idempotent; every run_range() calls it).
  void train();

  /// The enumerated candidates, in sweep order. Requires train().
  [[nodiscard]] const std::vector<TunedConfiguration>& candidates() const;

  /// The number of (candidate, shard) cells the sweep decomposes into.
  /// Hides GridEngine::cell_count(): trains first, because the candidate
  /// space must be enumerated.
  [[nodiscard]] std::size_t cell_count();

  [[nodiscard]] const TunerSpec& spec() const { return spec_; }

  /// GridEngine::set_telemetry, plus attaching the profiler to the
  /// evaluator when profiling is on.
  void set_telemetry(obs::TelemetryConfig config);

 private:
  friend GridEngine;

  // The candidate grid is a one-scenario campaign: candidates take the
  // defense axis, so workload streams stay keyed by shard alone and every
  // candidate faces identical sampled sessions — the paired comparison
  // the Pareto ranking needs.
  [[nodiscard]] runtime::CellGrid grid() const {
    return runtime::CellGrid{candidates_.size(), 1, spec_.shards};
  }
  [[nodiscard]] CandidateShardOutcome run_cell(
      std::size_t cell_id, runtime::WorkerArena& arena,
      obs::WindowedRegistry* windows) const;
  void publish_cell(obs::MetricsRegistry& registry, std::size_t cell_id,
                    const CandidateShardOutcome& outcome) const;
  [[nodiscard]] TuningReport aggregate(
      std::vector<CandidateShardOutcome> cells) const;

  TunerSpec spec_;
  CandidateEvaluator evaluator_;
  std::vector<TunedConfiguration> candidates_;
  bool trained_ = false;
};

}  // namespace reshape::core::tuning
