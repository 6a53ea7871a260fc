// The shared cell-evaluation backend of every sweep engine.
//
// CampaignEngine, AdaptiveCampaignEngine, and core::tuning::ParameterTuner
// all decompose their work into the same shape: a grid of independent
// cells (candidate/defense × scenario × shard), each scored from keyed RNG
// substreams so results are bit-identical for any thread count. Before
// this header existed, each engine carried its own copy of the grid
// arithmetic, the stream keying, the worker pool, and (for the adaptive
// engines) the RSSI flow-tagging and prequential scoring — which is
// exactly how two engines drift apart. Everything cell-shaped now lives
// here, once:
//
//   * CellGrid / cell_streams — grid decomposition and the canonical
//     keying: workload streams by (scenario, shard) ONLY (every defense
//     faces the same sampled sessions — the paired comparison the paper's
//     tables rely on), defense/RSSI/channel streams by the full cell id.
//   * run_cells — the abort-on-first-error worker pool (GridEngine,
//     runtime/grid_engine.h, drives it).
//   * bootstrap_profile — the clean-corpus profiling an adaptive
//     adversary starts from (byte-identical to the static harness corpus).
//   * rssi_tagged_flows / run_adaptive_flows — defended flows packaged
//     with synthetic power signatures, and the prequential epoch loop.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "attack/adaptive/adaptive_attacker.h"
#include "attack/audit/leakage_audit.h"
#include "eval/experiment.h"
#include "eval/session_eval.h"
#include "ml/dataset.h"
#include "obs/profiler.h"
#include "obs/windowed.h"
#include "util/rng.h"

namespace reshape::runtime {

/// The (defenses × scenarios × shards) grid every engine sweeps.
struct CellGrid {
  std::size_t defenses = 1;
  std::size_t scenarios = 1;
  std::size_t shards = 1;

  /// One cell's coordinates, defense-major then scenario then shard.
  struct Cell {
    std::size_t defense = 0;
    std::size_t scenario = 0;
    std::size_t shard = 0;
  };

  [[nodiscard]] std::size_t cell_count() const {
    return defenses * scenarios * shards;
  }
  [[nodiscard]] Cell decompose(std::size_t cell_id) const;

  /// The workload-stream key of a cell: (scenario, shard) only, so every
  /// defense in the grid faces identical sampled sessions.
  [[nodiscard]] std::size_t workload_id(const Cell& cell) const {
    return cell.scenario * shards + cell.shard;
  }
};

/// The keyed substreams one cell derives everything from.
struct CellStreams {
  util::Rng workload;          // session sampling — (scenario, shard) keyed
  std::uint64_t defense_seed;  // defense instances — full-cell keyed
  util::Rng rssi;              // synthetic power signatures — full-cell keyed
  util::Rng channel;           // arbitration/medium draws — full-cell keyed
};

/// The canonical derivation: first-level forks split the keyspaces, the
/// second-level fork keys the stream. Pure function of (seed, grid, cell).
[[nodiscard]] CellStreams cell_streams(std::uint64_t seed,
                                       const CellGrid& grid,
                                       std::size_t cell_id);

/// Per-worker allocation cache, owned by one pool worker and threaded
/// through every cell that worker runs: buffers grow to the largest cell
/// once instead of reallocating per cell. Purely an allocation cache —
/// cell results never depend on which worker (or arena) ran them.
struct WorkerArena {
  eval::EvalScratch eval;
};

/// Runs `run_one(cell_id, arena)` for every cell on `threads` workers (0
/// = hardware concurrency), passing each worker's private WorkerArena
/// (profiler wired into arena.eval) so engines can reuse allocations
/// across cells. Aborts remaining cells on the first exception and
/// rethrows it after the pool drains. `run_one` must be thread-safe and
/// write only to its own cell's slot. A non-null `profiler` records one
/// wall/CPU lap per cell (phase "cell/<id>") plus a pooled "cells" total —
/// host timings only, never part of the deterministic reports.
void run_cells(std::size_t cells, std::size_t threads,
               const std::function<void(std::size_t, WorkerArena&)>& run_one,
               obs::PhaseProfiler* profiler = nullptr);

/// The clean bootstrap corpus an adaptive adversary profiles before the
/// session starts — generated with the static harness's stream seeds, so
/// an AdaptiveAttacker and an ExperimentHarness on the same bootstrap
/// config profile byte-identical sessions. Only the seed and train_*
/// fields of `bootstrap` are used.
[[nodiscard]] ml::Dataset bootstrap_profile(
    const eval::ExperimentConfig& bootstrap,
    const attack::adaptive::AdaptiveConfig& attacker);

/// Synthetic power signatures for a cell's physical stations: each
/// session's mean RSSI is drawn uniformly from [min, max], and every flow
/// (virtual MAC) of the session observes it +- a small jitter — the §V-A
/// model attack::RssiLinker runs on.
struct RssiModel {
  double min_dbm = -70.0;
  double max_dbm = -45.0;
  double flow_jitter_db = 0.3;
};

/// Packages defended flows as the adversary isolates them on the air:
/// one ObservedFlow per non-empty stream, tagged with a synthetic
/// locally-administered MAC (unique per flow in the cell) and the §V-A
/// power signature. Draws per-session substreams via const keyed forks of
/// `rssi_rng`, so the tagging depends only on the cell's streams.
/// Consuming: the flow traces are *moved* out of `sessions` (cells hand
/// whole defended workloads over, and copying every packet record would
/// double each cell's allocation volume).
[[nodiscard]] std::vector<attack::adaptive::ObservedFlow> rssi_tagged_flows(
    std::span<eval::DefendedSession> sessions, const util::Rng& rssi_rng,
    const RssiModel& model);

/// Runs the prequential capture → window → refit → score loop over one
/// cell's flows: a fresh AdaptiveAttacker is bootstrapped from `base`
/// (shared raw rows, profiled once per engine) and scores one EpochScore
/// per cadence epoch. `make_classifier` may be null (default kNN).
[[nodiscard]] std::vector<attack::adaptive::EpochScore> run_adaptive_flows(
    const ml::Dataset& base, const attack::adaptive::AdaptiveConfig& config,
    const attack::adaptive::ClassifierFactory& make_classifier,
    std::span<const attack::adaptive::ObservedFlow> flows);

/// The shared label-free leakage audit every engine calls on its cell's
/// observed flows: reduces them with an attack::audit::LeakageAuditor
/// (audit window = the registry's window, so privacy series align with
/// the rest of the windowed telemetry) and publishes the privacy_* series
/// into `windows` under `labels`. `probe` may be null (the proxy series
/// is then absent); `config.window` is overridden by the registry's.
/// Observation-only and deterministic — reports are untouched and per-cell
/// registries fold byte-identically for any worker-thread count.
void audit_flows(std::span<const attack::adaptive::ObservedFlow> flows,
                 const attack::audit::NearestCentroidProbe* probe,
                 obs::WindowedRegistry& windows, const obs::LabelSet& labels,
                 attack::audit::AuditConfig config = {});

}  // namespace reshape::runtime
