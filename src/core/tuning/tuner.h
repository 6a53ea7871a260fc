// ParameterTuner: the constraint-driven replacement for the one-shot
// rule engine.
//
// recommend_parameters() picks Table V's point once and never looks at
// the deployment; the tuner instead enumerates a CandidateSpace against
// the defender's own size profile, measures every candidate on the arena
// scenario (epochs-until-adaptive-recovery, deadline-miss rate and
// access-delay percentiles under arbitration, byte overhead), filters by
// the hard budgets, Pareto-ranks the survivors, and selects one point —
// the TunedConfiguration the AP then pushes to clients through
// net::config_protocol.
//
// Sweeps run candidate × shard cells on the shared runtime:: worker pool
// with the same keyed-fork streams as every campaign engine, so a
// TuningReport is bit-identical for any thread count and serializes to a
// stable JSON (the BENCH_tuning.json trajectory file). Each cell runs the
// full live story once:
//
//   scenario workload            (runtime::Scenario, shard-keyed stream;
//                                 generated once per shard and run)
//     └─> per-session StreamingReshaper built from the candidate
//           ├─> per-interface flows  ──> RSSI tagging ──> adaptive
//           │   (batch-parity view)      (backend)        attacker epochs
//           ├─> StreamingStats (deadline misses, queueing delay, bytes)
//           └─> released packets ──> one arbitrated DCF cell ──>
//                                    per-frame access-delay samples
//
// The adaptive axis scores the same observable flows the batch engines
// would (streaming/batch golden parity), so "epochs until the adversary
// recovers" is directly comparable to AdaptiveCampaignEngine curves; the
// latency axis is what those engines never measure — what the candidate
// costs to *run*.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "attack/adaptive/adaptive_attacker.h"
#include "core/online/streaming_reshaper.h"
#include "core/tuning/candidate_space.h"
#include "core/tuning/objective.h"
#include "core/tuning/tuned_configuration.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "runtime/grid_engine.h"
#include "runtime/scenario.h"
#include "traffic/trace.h"

namespace reshape::core::tuning {

/// The default tuning arena: the tuned-vs-table5 registry workload at a
/// small multi-epoch size.
[[nodiscard]] runtime::Scenario default_arena();

/// The default streaming knobs of a tuning run: the contended-cell PHY
/// rate (12 Mbit/s) under the standard 20 ms latency budget.
[[nodiscard]] online::StreamingConfig default_streaming();

/// Everything one tuning run needs. Aggregate-initializable; every field
/// has a workable default.
struct TunerSpec {
  /// Master seed; every cell stream is a keyed fork of it.
  std::uint64_t seed = 0x7C7EULL;

  CandidateSpace space{};
  TuningObjective objective{};

  /// The workload candidates are measured on.
  runtime::Scenario scenario = default_arena();

  /// Clean bootstrap corpus for the adaptive adversary (train_* fields)
  /// and the defender's own size-profile measurement (seed).
  eval::ExperimentConfig bootstrap{};

  /// The adaptive loop's knobs; `attacker.cadence` is the
  /// adversary-strength axis benches sweep.
  attack::adaptive::AdaptiveConfig attacker{};

  /// Modeled-radio knobs of the candidates' streaming pipelines; its
  /// bitrate is also the PHY rate of the arbitrated access-delay cell.
  online::StreamingConfig streaming = default_streaming();

  /// Independent workload replicas per candidate.
  std::size_t shards = 1;
};

/// One shard's raw measurements for one candidate.
struct CandidateShardOutcome {
  std::size_t sessions = 0;
  std::size_t flows = 0;
  std::vector<attack::adaptive::EpochScore> epochs;
  online::StreamingStats streaming{};      // pooled over the shard's pipelines
  std::vector<double> access_delay_us;     // arbitrated per-frame, sorted
  std::uint64_t frames_dropped = 0;        // retry limit exceeded on the air
};

/// Merges one candidate's shard outcomes into metrics under `objective`
/// (epoch confusions merged per epoch before the crossing test, delay
/// samples pooled before percentiles). Each shard's access_delay_us must
/// be sorted, as a cell leaves it; the pooled samples are their linear
/// merge.
[[nodiscard]] CandidateMetrics merge_shards(
    std::span<const CandidateShardOutcome> shards,
    const TuningObjective& objective);

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

/// Enumerates, measures, filters, ranks, selects. run(), fold() and the
/// telemetry accessors come from runtime::GridEngine; the profiler also
/// carries the arena "generation" laps and each cell's streaming /
/// arbitration / adaptive laps.
class ParameterTuner
    : public runtime::GridEngine<ParameterTuner, CandidateShardOutcome,
                                 TuningReport> {
 public:
  /// Validates the spec (>= 1 shard, a positive streaming bitrate).
  explicit ParameterTuner(TunerSpec spec);

  /// Trains the adversary on the bootstrap corpus, profiles the
  /// defender's size profile, enumerates the candidate space and, when
  /// privacy telemetry is on, builds the label-free probe from the
  /// adversary's base rows (idempotent; every run_range() calls it).
  void train();

  /// The enumerated candidates, in sweep order. Requires train().
  [[nodiscard]] const std::vector<TunedConfiguration>& candidates() const;

  /// The number of (candidate, shard) cells the sweep decomposes into.
  /// Hides GridEngine::cell_count(): trains first, because the candidate
  /// space must be enumerated.
  [[nodiscard]] std::size_t cell_count();

  [[nodiscard]] const TunerSpec& spec() const { return spec_; }

  /// GridEngine::run_range over a workload memo scoped to this call: each
  /// shard's arena is generated at most once per range, by whichever cell
  /// reaches it first, and shared read-only by every candidate on the
  /// shard. Nothing is held between calls.
  [[nodiscard]] TuningRangeOutcome run_range(std::size_t begin,
                                             std::size_t end,
                                             std::size_t threads = 0);

 private:
  friend GridEngine;

  // The candidate grid is a one-scenario campaign: candidates take the
  // defense axis, so workload streams stay keyed by shard alone and every
  // candidate faces identical sampled sessions — the paired comparison
  // the Pareto ranking needs.
  [[nodiscard]] runtime::CellGrid grid() const {
    return runtime::CellGrid{candidates_.size(), 1, spec_.shards};
  }
  /// The (candidate, shard) labels every per-cell series carries.
  [[nodiscard]] obs::LabelSet cell_labels(
      const runtime::CellGrid::Cell& cell) const {
    return obs::LabelSet{{"candidate", candidates_[cell.defense].name},
                         {"shard", std::to_string(cell.shard)}};
  }
  [[nodiscard]] CandidateShardOutcome run_cell(
      std::size_t cell_id, runtime::WorkerArena& arena,
      obs::WindowedRegistry* windows) const;
  void publish_cell(obs::MetricsRegistry& registry, std::size_t cell_id,
                    const CandidateShardOutcome& outcome) const;
  [[nodiscard]] TuningReport aggregate(
      std::vector<CandidateShardOutcome> cells) const;

  TunerSpec spec_;
  // The adversary, trained on the bootstrap profile by train() and shared
  // read-only by every cell (run_session is const).
  std::optional<attack::adaptive::AdaptiveAttacker> attacker_;
  std::vector<TunedConfiguration> candidates_;
  bool trained_ = false;

  // The memo of the run_range() in flight (one slot per shard); null
  // between calls.
  runtime::WorkloadMemo<std::vector<traffic::Trace>>* workloads_ = nullptr;
};

}  // namespace reshape::core::tuning
