// The parallel evaluation campaign engine.
//
// A campaign is a grid of independent cells — (defense × scenario × seed
// shard) — each scored exactly the way eval::ExperimentHarness scores one
// defense: generate the cell's workload, apply the defense per session,
// run the trained attackers over every observable flow. The engine trains
// the attackers once (serially — training is the only mutating phase),
// then drains the cell grid on a pool of std::threads.
//
// Determinism: every cell derives its RNG from the campaign seed and its
// own cell id via util::Rng::fork(stream_id), a keyed split that never
// consumes parent state. Cell results therefore depend only on the spec,
// never on thread count or scheduling order, and reports are bit-identical
// for any `threads` value — the property bench_campaign_throughput and
// runtime_test assert.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "attack/audit/leakage_audit.h"
#include "eval/defense_factory.h"
#include "eval/experiment.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "runtime/evaluation_backend.h"
#include "runtime/grid_engine.h"
#include "runtime/scenario.h"
#include "util/check.h"

namespace reshape::runtime {

/// One defense under evaluation.
struct DefenseSpec {
  std::string name;
  eval::DefenseFactory factory;
};

/// The campaign grid.
struct CampaignSpec {
  /// Master seed; every cell stream is a keyed fork of it.
  std::uint64_t seed = 2011;

  /// Attacker-training configuration (the adversary profiles clean
  /// single-app traffic exactly as in the paper, whatever the scenarios).
  eval::ExperimentConfig training{};

  std::vector<DefenseSpec> defenses;
  std::vector<Scenario> scenarios;

  /// Independent workload replicas per (defense, scenario); shard s of a
  /// scenario regenerates the workload from a different substream.
  std::size_t shards = 1;
};

/// One scored cell.
struct CellResult {
  std::size_t defense_index = 0;
  std::size_t scenario_index = 0;
  std::size_t shard = 0;
  std::size_t session_count = 0;
  eval::DefenseEvaluation evaluation;
};

/// Shard-merged numbers for one (defense, scenario): confusion matrices
/// are summed, per-app accuracy/FP recomputed from the merged matrix, and
/// overhead averaged across shards.
struct CellAggregate {
  std::string defense;
  std::string scenario;
  std::size_t shards = 0;
  eval::DefenseEvaluation evaluation;
};

/// One scored contiguous slice of the campaign grid.
using CampaignRangeOutcome = RangeOutcome<CellResult>;

/// Everything a campaign produced, in deterministic order.
struct CampaignReport {
  std::uint64_t seed = 0;
  std::size_t shards = 0;
  std::vector<CellResult> cells;          // defense-major, then scenario, shard
  std::vector<CellAggregate> aggregates;  // defense-major, then scenario

  /// The aggregate of one (defense, scenario); throws std::out_of_range
  /// when the pair was not part of the campaign.
  [[nodiscard]] const CellAggregate& aggregate(
      std::string_view defense, std::string_view scenario) const;

  /// Stable JSON export (fixed key order, locale-independent numbers) —
  /// equal reports serialize to equal strings.
  [[nodiscard]] std::string to_json() const;
};

namespace detail {

// The defense × scenario × shard grid both campaign engines sweep, shared
// over their spec, cell and aggregate types.

/// Throws std::invalid_argument unless the spec has >= 1 defense (each
/// named, with a factory), >= 1 scenario and >= 1 shard.
template <typename Spec>
void require_defense_grid(const Spec& spec, const std::string& engine) {
  util::require(!spec.defenses.empty(),
                engine + ": need at least one defense");
  util::require(!spec.scenarios.empty(),
                engine + ": need at least one scenario");
  util::require(spec.shards > 0, engine + ": need at least one shard");
  for (const DefenseSpec& defense : spec.defenses) {
    util::require(!defense.name.empty() && defense.factory != nullptr,
                  engine + ": defense needs a name and a factory");
  }
}

/// The grid's shape: defense-major, then scenario, then shard.
template <typename Spec>
[[nodiscard]] CellGrid defense_grid(const Spec& spec) {
  return CellGrid{spec.defenses.size(), spec.scenarios.size(), spec.shards};
}

/// The cell-unique labels every per-cell series carries.
template <typename Spec, typename Cell>
[[nodiscard]] obs::LabelSet cell_labels(const Spec& spec, const Cell& cell) {
  return obs::LabelSet{
      {"defense", spec.defenses[cell.defense_index].name},
      {"scenario", std::string{spec.scenarios[cell.scenario_index].name()}},
      {"shard", std::to_string(cell.shard)}};
}

/// The (defense, scenario) entry of `aggregates`; throws
/// std::out_of_range naming `report` when the pair is absent.
template <typename Aggregate>
[[nodiscard]] const Aggregate& find_aggregate(
    const std::vector<Aggregate>& aggregates, std::string_view defense,
    std::string_view scenario, std::string_view report) {
  for (const Aggregate& a : aggregates) {
    if (a.defense == defense && a.scenario == scenario) {
      return a;
    }
  }
  throw std::out_of_range{std::string{report} + ": no aggregate for '" +
                          std::string{defense} + "' x '" +
                          std::string{scenario} + "'"};
}

}  // namespace detail

/// Trains once, then runs campaign cells on a worker pool. run(),
/// run_range(), fold() and the telemetry accessors come from GridEngine.
class CampaignEngine
    : public GridEngine<CampaignEngine, CellResult, CampaignReport> {
 public:
  /// Validates the spec (>= 1 defense, >= 1 scenario, >= 1 shard).
  explicit CampaignEngine(CampaignSpec spec);

  /// Trains the attackers and, when privacy telemetry is on, builds the
  /// label-free probe (idempotent; every run_range() calls it).
  void train();

  /// Materializes every (scenario, shard) workload slot now, on this
  /// thread. Byte-neutral (the slots are pure functions of the spec).
  void warm_workloads();

  /// train() plus warm_workloads(): shard-server coordinators call this
  /// before forking so worker processes inherit the sessions instead of
  /// regenerating them per process.
  void prepare();

  /// The shared trained harness (valid after the first run()/train()).
  [[nodiscard]] eval::ExperimentHarness& harness() { return harness_; }

  /// GridEngine::set_telemetry, plus dropping the offered-load cache
  /// (it is keyed on the window length).
  void set_telemetry(obs::TelemetryConfig config);

 private:
  friend GridEngine;

  [[nodiscard]] CellGrid grid() const { return detail::defense_grid(spec_); }
  /// The memoized sessions of workload slot (scenario, shard).
  [[nodiscard]] const std::vector<traffic::Trace>& workload(
      std::size_t slot) const;
  [[nodiscard]] CellResult run_cell(std::size_t cell_id, WorkerArena& arena,
                                    obs::WindowedRegistry* windows) const;
  void publish_cell(obs::MetricsRegistry& registry, std::size_t cell_id,
                    const CellResult& cell) const;
  [[nodiscard]] CampaignReport aggregate(std::vector<CellResult> cells) const;

  CampaignSpec spec_;
  eval::ExperimentHarness harness_;

  // The label-free attacker proxy (privacy telemetry): built from the
  // clean bootstrap corpus by the first train() with privacy on, then
  // shared read-only by every cell.
  std::optional<attack::audit::NearestCentroidProbe> probe_;

  // Workload memoization for the engine's lifetime. A cell's sessions are
  // a pure function of (seed, scenario, shard) — the workload stream is
  // keyed on exactly that, never on the defense — so every defense row of
  // the grid reuses one materialization, and repeated run() calls
  // regenerate nothing. Traffic generation dominates cell cost (it burns
  // the RNG draws), so this is the difference between re-simulating the
  // paper's workload per defense and sampling it once per (scenario,
  // shard).
  mutable WorkloadMemo workloads_;

  // Windowed-reduction memoization, same keying: campaign_offered_bytes
  // is the *pre-defense* workload, so its per-window reduction is shared
  // by every defense row of the grid exactly like the traces themselves —
  // one packet-column sweep per (scenario, shard) instead of one per
  // cell. set_telemetry() invalidates it (the window length may change).
  mutable std::unique_ptr<std::once_flag[]> offered_once_;
  mutable std::vector<std::shared_ptr<const std::vector<obs::WindowPoint>>>
      offered_windows_;
};

}  // namespace reshape::runtime
