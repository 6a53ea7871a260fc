// CandidateEvaluator: measures one parameter point against one arena.
//
// For each (candidate, shard) cell the evaluator runs the full live
// story once, all from the shared runtime:: evaluation backend's keyed
// streams so a sweep is bit-identical for any thread count:
//
//   scenario workload            (runtime::Scenario, shard-keyed stream;
//                                 generated by the caller, once per shard)
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
#include <span>
#include <vector>

#include "attack/adaptive/adaptive_attacker.h"
#include "core/online/streaming_reshaper.h"
#include "core/tuning/candidate_space.h"
#include "core/tuning/objective.h"
#include "core/tuning/tuned_configuration.h"
#include "eval/experiment.h"
#include "ml/dataset.h"
#include "obs/profiler.h"
#include "runtime/evaluation_backend.h"
#include "runtime/scenario.h"
#include "traffic/trace.h"

namespace reshape::core::tuning {

/// The default tuning arena: the tuned-vs-table5 registry workload at a
/// small multi-epoch size.
[[nodiscard]] runtime::Scenario default_arena();

/// The default streaming knobs of a tuning run: the contended-cell PHY
/// rate (12 Mbit/s, matching the arena's arbitration) under the standard
/// 20 ms latency budget.
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

  /// Classifier per trainer; null selects the default (kNN).
  attack::adaptive::ClassifierFactory make_classifier;

  /// Modeled-radio knobs of the candidates' streaming pipelines.
  online::StreamingConfig streaming = default_streaming();

  /// PHY rate of the arbitrated access-delay measurement cell.
  double arbitration_bitrate_mbps = 12.0;

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

/// Measures candidates; shared by ParameterTuner and the bench binaries.
/// Holds a *reference* to the spec (one source of truth with the owning
/// tuner — a second copy could silently drift from what run() reads);
/// the spec must outlive the evaluator, so temporaries are rejected.
class CandidateEvaluator {
 public:
  explicit CandidateEvaluator(const TunerSpec& spec);
  explicit CandidateEvaluator(TunerSpec&&) = delete;

  /// Profiles the adversary's bootstrap corpus and the defender's size
  /// profile (idempotent; evaluate_cell requires it).
  void train();
  [[nodiscard]] bool trained() const { return trained_; }

  /// The pooled clean size profile equal-mass candidates are derived
  /// from — the defender's own measurement pass. Requires train().
  [[nodiscard]] const traffic::Trace& profile_trace() const;

  /// Evaluates one (candidate, shard) cell of `grid` (candidates-major,
  /// one scenario) on `sessions`, the cell's arena: spec().scenario
  /// generated from the cell's workload stream. That stream is keyed by
  /// shard alone, so every candidate on a shard takes the same sessions
  /// and the caller generates them once. Deterministic in (spec seed,
  /// grid, cell_id, sessions); const and thread-safe after train().
  /// `windows` (optional) receives sim-time-windowed series from the
  /// cell's streaming reshaper, channel arbiter, and adaptive epochs
  /// under (candidate, shard) labels; observation-only, the outcome is
  /// byte-identical with or without it. With `audit_privacy` set (and a
  /// non-null `windows`), the cell's observed flows additionally run
  /// through the shared label-free leakage audit — privacy_* series under
  /// the same labels, still observation-only; `audit_pairs` adds the
  /// per-vMAC-pair divergence series on top. `laps` (optional) receives
  /// one wall/CPU lap each of the streaming, arbitration and adaptive
  /// passes — host timings only, never part of the outcome.
  [[nodiscard]] CandidateShardOutcome evaluate_cell(
      const TunedConfiguration& candidate,
      std::span<const traffic::Trace> sessions, const runtime::CellGrid& grid,
      std::size_t cell_id, obs::WindowedRegistry* windows = nullptr,
      bool audit_privacy = false, bool audit_pairs = false,
      obs::CellLaps* laps = nullptr) const;

  /// Merges one candidate's shard outcomes into metrics under
  /// `objective` (epoch confusions merged per epoch before the crossing
  /// test, delay samples pooled before percentiles). Each shard's
  /// access_delay_us must be sorted, as evaluate_cell leaves it; the
  /// pooled samples are their linear merge.
  [[nodiscard]] static CandidateMetrics merge(
      std::span<const CandidateShardOutcome> shards,
      const TuningObjective& objective);

 private:
  const TunerSpec& spec_;
  ml::Dataset base_;
  traffic::Trace profile_;
  attack::audit::NearestCentroidProbe probe_;  // label-free attacker proxy
  bool trained_ = false;
};

}  // namespace reshape::core::tuning
