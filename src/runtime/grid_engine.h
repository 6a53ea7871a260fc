// The cell-grid skeleton every sweep engine shares.
//
// CampaignEngine, AdaptiveCampaignEngine and core::tuning::ParameterTuner
// all score a grid of independent cells and differ only in what a cell
// is. GridEngine owns everything else, once: the range run (bounds
// check, one private metrics/windowed registry per cell, snapshot in the
// worker, cell-order merge), the contiguity-checked fold, run() as the
// fold of the single whole-grid range, and the engine's telemetry.
//
// An engine derives from GridEngine<Engine, Cell, Report> (CRTP) and
// supplies:
//
//   CellGrid grid() const;             // the grid's shape
//   void train();                      // idempotent; builds what cells read
//   Cell run_cell(std::size_t cell_id, WorkerArena&,
//                 obs::WindowedRegistry* windows) const;
//   void publish_cell(obs::MetricsRegistry&, std::size_t cell_id,
//                     const Cell&) const;
//   Report aggregate(std::vector<Cell> cells) const;  // whole grid
//
// and may hide set_telemetry() or prepare() to do more, run_range() to
// scope per-run state around the range run (run() calls the engine's),
// and cell_count() when the grid is only known after train().
//
// Determinism: a cell's result and its telemetry snapshots are pure
// functions of the spec and the cell id, every per-cell series carries
// cell-unique labels, and the fold merges in cell order — so reports and
// telemetry are byte-identical for any thread count and any range
// partition (the property the shard server relies on).
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/windowed.h"
#include "runtime/evaluation_backend.h"
#include "util/check.h"

namespace reshape::runtime {

/// One scored contiguous slice of a grid — the unit of work the shard
/// server ships between processes. `cells` holds the results of ids
/// [begin, end) in order; metrics/windows are that slice's per-cell
/// telemetry snapshots folded in cell order (empty when the matching
/// collection is off).
template <typename Cell>
struct RangeOutcome {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::vector<Cell> cells;
  obs::MetricsSnapshot metrics;
  obs::WindowedSnapshot windows;
};

template <typename Engine, typename Cell, typename Report>
class GridEngine {
 public:
  using Outcome = RangeOutcome<Cell>;

  /// Runs the whole grid on `threads` workers (0 = hardware concurrency):
  /// the fold of the single range [0, cell_count()). Trains on first use;
  /// the report is bit-identical for every `threads` value.
  [[nodiscard]] Report run(std::size_t threads = 0) {
    const std::size_t cells = self().cell_count();
    telemetry_.profiler.clear();
    std::vector<Outcome> ranges;
    ranges.push_back(self().run_range(0, cells, threads));
    return fold(std::move(ranges));
  }

  /// Scores cells [begin, end) on `threads` workers without touching the
  /// engine's merged telemetry — the shard-server work unit. Trains on
  /// first use, exactly like run().
  [[nodiscard]] Outcome run_range(std::size_t begin, std::size_t end,
                                  std::size_t threads = 0) {
    Engine& engine = self();
    engine.train();
    util::require(begin <= end && end <= engine.cell_count(),
                  "GridEngine::run_range: range out of bounds");
    const obs::TelemetryConfig& config = telemetry_.config;
    Outcome outcome;
    outcome.begin = begin;
    outcome.end = end;
    const std::size_t count = end - begin;
    outcome.cells.resize(count);
    // One private registry per cell, snapshotted by whichever worker ran
    // the cell and folded in cell order — a cell's snapshot is a pure
    // function of its result, so the merged telemetry is as
    // thread-count-independent as the report itself.
    std::vector<obs::MetricsSnapshot> cell_metrics(config.metrics ? count
                                                                  : 0);
    const bool collect_windows = config.windowed || config.privacy;
    std::vector<obs::WindowedSnapshot> cell_windows(collect_windows ? count
                                                                    : 0);
    run_cells(
        count, threads,
        [&](std::size_t index, WorkerArena& arena) {
          const std::size_t cell_id = begin + index;
          std::optional<obs::WindowedRegistry> windows;
          if (collect_windows) {
            windows.emplace(config.window);
          }
          outcome.cells[index] =
              engine.run_cell(cell_id, arena, windows ? &*windows : nullptr);
          if (config.metrics) {
            obs::MetricsRegistry registry;
            engine.publish_cell(registry, cell_id, outcome.cells[index]);
            cell_metrics[index] = registry.snapshot();
          }
          if (windows) {
            cell_windows[index] = windows->snapshot();
          }
        },
        config.profiling ? &telemetry_.profiler : nullptr);
    for (const obs::MetricsSnapshot& snapshot : cell_metrics) {
      outcome.metrics.merge(snapshot);
    }
    for (const obs::WindowedSnapshot& snapshot : cell_windows) {
      outcome.windows.merge(snapshot);
    }
    return outcome;
  }

  /// Folds range outcomes — which must cover [0, cell_count())
  /// contiguously and in ascending order (throws std::invalid_argument
  /// otherwise) — into the final report, rebuilding the engine's merged
  /// telemetry exactly as run() does. Byte-identical to the in-process
  /// fold for any range partition.
  [[nodiscard]] Report fold(std::vector<Outcome> ranges) {
    Engine& engine = self();
    const std::size_t cells = engine.cell_count();
    std::size_t expected = 0;
    for (const Outcome& range : ranges) {
      if (range.begin != expected || range.end < range.begin ||
          range.cells.size() != range.end - range.begin) {
        throw std::invalid_argument{
            "GridEngine::fold: ranges must cover the grid contiguously in "
            "ascending order"};
      }
      expected = range.end;
    }
    if (expected != cells) {
      throw std::invalid_argument{
          "GridEngine::fold: ranges do not cover every cell"};
    }

    telemetry_.metrics = obs::MetricsSnapshot{};
    telemetry_.windows = obs::WindowedSnapshot{};
    std::vector<Cell> results;
    results.reserve(cells);
    for (Outcome& range : ranges) {
      telemetry_.metrics.merge(range.metrics);
      telemetry_.windows.merge(range.windows);
      for (Cell& cell : range.cells) {
        results.push_back(std::move(cell));
      }
    }
    return engine.aggregate(std::move(results));
  }

  /// Builds, before a fork, everything shard workers should inherit
  /// instead of rebuilding per process. Engines with more to warm hide
  /// this with their own.
  void prepare() { self().train(); }

  /// The number of cells the grid decomposes into.
  [[nodiscard]] std::size_t cell_count() const {
    return static_cast<const Engine&>(*this).grid().cell_count();
  }

  /// Selects what the next run collects. Telemetry is observation-only:
  /// reports are byte-identical whatever this is set to.
  void set_telemetry(obs::TelemetryConfig config) {
    telemetry_.config = config;
  }
  [[nodiscard]] const obs::TelemetryConfig& telemetry_config() const {
    return telemetry_.config;
  }

  /// The merged metrics of the last run()/fold() (per-cell series folded
  /// in cell order). Empty when metrics collection was off.
  [[nodiscard]] const obs::MetricsSnapshot& telemetry() const {
    return telemetry_.metrics;
  }

  /// The merged sim-time-windowed series of the last run()/fold(), folded
  /// in cell order. Empty when windowed and privacy collection were off.
  [[nodiscard]] const obs::WindowedSnapshot& windowed() const {
    return telemetry_.windows;
  }

  /// Wall/CPU phase timings: per-cell laps from the worker pool plus any
  /// the engine records inside its cells. Host measurements — never part
  /// of the deterministic report. run() clears them; run_range() adds.
  [[nodiscard]] const obs::PhaseProfiler& profiler() const {
    return telemetry_.profiler;
  }

  /// The combined telemetry document of the last run(); sections follow
  /// the telemetry config.
  [[nodiscard]] std::string telemetry_to_json() const {
    return telemetry_.to_json();
  }

 protected:
  GridEngine() = default;
  ~GridEngine() = default;

  obs::EngineTelemetry telemetry_;

 private:
  Engine& self() { return static_cast<Engine&>(*this); }
};

}  // namespace reshape::runtime
