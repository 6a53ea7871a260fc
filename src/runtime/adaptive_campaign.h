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
// bootstrap corpus is profiled once before the pool starts — reports are
// bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "attack/adaptive/adaptive_attacker.h"
#include "attack/audit/leakage_audit.h"
#include "eval/experiment.h"
#include "ml/dataset.h"
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

/// Profiles the bootstrap corpus once, then runs cells on a worker pool.
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

  /// Builds the shared bootstrap dataset and, when privacy telemetry is
  /// on, the label-free probe (idempotent; every run_range() calls it).
  void train();

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
  ml::Dataset base_;  // shared raw bootstrap rows (read-only after train)
  bool trained_ = false;

  // The label-free attacker proxy (privacy telemetry), built from base_
  // by the first train() with privacy on.
  std::optional<attack::audit::NearestCentroidProbe> probe_;

  // The sessions of each (scenario, shard) slot, generated once for the
  // engine's lifetime and shared by every defense row (detail::workload).
  mutable WorkloadMemo<std::vector<traffic::Trace>> workloads_;
};

}  // namespace reshape::runtime
