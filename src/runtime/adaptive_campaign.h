// The adaptive arms-race campaign: defense × scenario × shard cells where
// the adversary is attack::adaptive::AdaptiveAttacker instead of the
// static harness attackers.
//
// A static campaign (runtime::CampaignEngine) scores one number per cell.
// An adaptive cell instead produces an *accuracy-over-time curve*: the
// defense is applied to the cell's sessions, the resulting flows are
// handed to an adaptive attacker that re-trains every cadence, and every
// re-training epoch contributes one point — adaptive accuracy next to the
// frozen static baseline on the same windows. Sweeping defenses against
// that curve shows how long each defense survives adaptation, which is
// the selection signal the latency-constrained parameter-selection work
// needs.
//
// Determinism matches CampaignEngine exactly: workload streams are keyed
// by (scenario, shard) only (every defense faces the same sampled
// sessions), defense and RSSI streams by the full cell id, and the
// attacker is trained on the bootstrap corpus once before the pool starts
// (each cell's session trains its own adaptive model from it) — reports
// are bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "attack/adaptive/adaptive_attacker.h"
#include "eval/experiment.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
#include "runtime/campaign.h"
#include "runtime/grid_engine.h"
#include "runtime/scenario.h"

namespace reshape::runtime {

/// The adaptive campaign grid.
struct AdaptiveCampaignSpec {
  /// Master seed; every cell stream is a keyed fork of it.
  std::uint64_t seed = 2011;

  /// Clean bootstrap corpus parameters (the adversary profiles undefended
  /// traffic first, exactly like the static attacker); only the seed and
  /// train_* fields are used.
  eval::ExperimentConfig bootstrap{};

  /// The adaptive loop's knobs (cadence, labeling, sliding window).
  attack::adaptive::AdaptiveConfig attacker{};

  std::vector<DefenseSpec> defenses;
  std::vector<Scenario> scenarios;
  std::size_t shards = 1;
};

/// One scored cell: the epoch curve of one (defense, scenario, shard).
struct AdaptiveCellResult {
  std::size_t defense_index = 0;
  std::size_t scenario_index = 0;
  std::size_t shard = 0;
  std::size_t session_count = 0;
  std::size_t flow_count = 0;
  std::vector<attack::adaptive::EpochScore> epochs;
};

/// Shard-merged numbers for one epoch of one (defense, scenario).
struct EpochAggregate {
  std::size_t windows = 0;
  ml::ConfusionMatrix confusion;
  ml::ConfusionMatrix static_confusion;
  std::size_t labels_correct = 0;
  std::size_t labels_assigned = 0;

  EpochAggregate();

  /// THE canonical shard-merge of one epoch: every field of the score is
  /// folded in (windows, both confusions, both label tallies). The
  /// adaptive campaign and core::tuning::ParameterTuner both merge
  /// through here — a second hand-rolled path once dropped the window and
  /// label counters, the aggregation asymmetry tests/obs_test.cc now
  /// guards against.
  void merge(const attack::adaptive::EpochScore& epoch);

  /// Mean per-class accuracy (%) of the adaptive / static model.
  [[nodiscard]] double accuracy_percent() const;
  [[nodiscard]] double static_accuracy_percent() const;
};

/// Folds one shard's epoch curve into `merged` through
/// EpochAggregate::merge, first growing `merged` to the curve's length:
/// epoch counts can differ across shards (sessions end at different
/// instants), so a merged curve spans the longest shard. The shard merge
/// of this engine and of core::tuning::merge_shards.
void merge_curve(std::vector<EpochAggregate>& merged,
                 std::span<const attack::adaptive::EpochScore> curve);

/// The epoch curve of one (defense, scenario), shards merged per epoch.
struct AdaptiveAggregate {
  std::string defense;
  std::string scenario;
  std::size_t shards = 0;
  std::vector<EpochAggregate> epochs;
};

/// One scored contiguous slice of the adaptive grid.
using AdaptiveRangeOutcome = RangeOutcome<AdaptiveCellResult>;

/// Everything an adaptive campaign produced, in deterministic order.
struct AdaptiveCampaignReport {
  std::uint64_t seed = 0;
  std::size_t shards = 0;
  std::vector<AdaptiveCellResult> cells;        // defense-major grid order
  std::vector<AdaptiveAggregate> aggregates;    // defense-major

  /// The aggregate of one (defense, scenario); throws std::out_of_range
  /// when the pair was not part of the campaign.
  [[nodiscard]] const AdaptiveAggregate& aggregate(
      std::string_view defense, std::string_view scenario) const;

  /// Stable JSON export (fixed key order, locale-independent numbers) —
  /// equal reports serialize to equal strings.
  [[nodiscard]] std::string to_json() const;
};

/// Trains one attacker on the bootstrap corpus, then runs cells on a
/// worker pool; every cell's session runs on that shared const attacker.
/// run(), run_range(), fold() and the telemetry accessors come from
/// GridEngine. The windowed series carry adaptive_accuracy_percent (and
/// the static baseline) observed at each epoch's start: with the config
/// window set to the attacker cadence, windows align 1:1 with epochs.
class AdaptiveCampaignEngine
    : public GridEngine<AdaptiveCampaignEngine, AdaptiveCellResult,
                        AdaptiveCampaignReport> {
 public:
  /// Validates the spec (>= 1 defense, >= 1 scenario, >= 1 shard).
  explicit AdaptiveCampaignEngine(AdaptiveCampaignSpec spec);

  /// Builds the shared attacker from the bootstrap profile and, when
  /// privacy telemetry is on, the label-free probe from the attacker's
  /// base rows (idempotent; every run_range() calls it).
  void train();

  /// train() plus every (scenario, shard) workload slot: shard-server
  /// coordinators call this before forking so worker processes inherit
  /// the sessions instead of regenerating them per process.
  void prepare();

 private:
  friend GridEngine;

  [[nodiscard]] CellGrid grid() const { return detail::defense_grid(spec_); }
  [[nodiscard]] AdaptiveCellResult run_cell(
      std::size_t cell_id, WorkerArena& arena,
      obs::WindowedRegistry* windows) const;
  void publish_cell(obs::MetricsRegistry& registry, std::size_t cell_id,
                    const AdaptiveCellResult& cell) const;
  [[nodiscard]] AdaptiveCampaignReport aggregate(
      std::vector<AdaptiveCellResult> cells) const;

  AdaptiveCampaignSpec spec_;

  // The adversary, trained on the bootstrap profile by the first train()
  // and shared read-only by every cell (run_session is const).
  std::optional<attack::adaptive::AdaptiveAttacker> attacker_;

  // The sessions of each (scenario, shard) slot, generated once for the
  // engine's lifetime and shared by every defense row (detail::workload).
  mutable WorkloadMemo<std::vector<traffic::Trace>> workloads_;
};

}  // namespace reshape::runtime
