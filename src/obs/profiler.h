// Per-phase wall/CPU profiling for the evaluation backends.
//
// A grid cell's host time splits over a fixed phase list (generation,
// features, streaming, arbitration, adaptive). The worker that runs a
// cell laps those phases into the cell's own CellLaps record — an RAII
// PhaseLap is two clock reads at each end and an array slot, with no
// lock and no string. After the pool joins, the coordinating thread
// folds the records in cell order into a PhaseProfiler, the one place
// that names phases; nothing else touches it.
//
// Profiling is inherently nondeterministic (it measures the host, not the
// simulation), so its output is exported ONLY through the telemetry JSON —
// it must never be folded into the deterministic campaign/tuner reports.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace reshape::obs {

/// Accumulated laps of one phase. Merge sums everything.
struct PhaseSample {
  std::int64_t wall_us = 0;
  std::int64_t cpu_us = 0;
  std::uint64_t calls = 0;

  void merge(const PhaseSample& other) {
    wall_us += other.wall_us;
    cpu_us += other.cpu_us;
    calls += other.calls;
  }
};

/// The phases a cell laps, in the order CellLaps::phases stores them.
enum class Phase : std::uint8_t {
  kGeneration,
  kFeatures,
  kStreaming,
  kArbitration,
  kAdaptive,
};
inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kAdaptive) + 1;

/// One cell's laps, filled by the one worker that runs the cell. With
/// `enabled` false every PhaseLap on it is a no-op.
struct CellLaps {
  bool enabled = false;
  PhaseSample cell;  // the whole cell
  std::array<PhaseSample, kPhaseCount> phases{};
};

/// RAII lap: adds one call of the elapsed wall and thread-CPU time to a
/// sample when it dies.
class PhaseLap {
 public:
  /// Laps `phase` of `laps`; inert when `laps` is null or not enabled.
  PhaseLap(CellLaps* laps, Phase phase)
      : PhaseLap{laps != nullptr && laps->enabled
                     ? &laps->phases[static_cast<std::size_t>(phase)]
                     : nullptr} {}
  /// Laps into `sample`; inert when it is null. The inert path is one
  /// inline test, so a lap can sit on a per-flow loop.
  explicit PhaseLap(PhaseSample* sample) : sample_{sample} {
    if (sample_ != nullptr) {
      start();
    }
  }
  ~PhaseLap() {
    if (sample_ != nullptr) {
      stop();
    }
  }
  PhaseLap(const PhaseLap&) = delete;
  PhaseLap& operator=(const PhaseLap&) = delete;

 private:
  void start();
  void stop();

  PhaseSample* sample_;
  std::int64_t wall_start_ = 0;
  std::int64_t cpu_start_ = 0;
};

/// The fold target of an engine's cell laps. Single-threaded: only the
/// coordinating thread adds to or reads it.
class PhaseProfiler {
 public:
  /// Folds one cell's laps: its whole-cell sample into "cells" (the sum
  /// over cells) and "cell/<cell_id>", and each phase with laps into the
  /// phase's name.
  void add(std::size_t cell_id, const CellLaps& laps);

  /// Phases sorted by name (std::map order), samples copied out.
  [[nodiscard]] std::map<std::string, PhaseSample> snapshot() const {
    return phases_;
  }

  /// {"phase":{"wall_us":...,"cpu_us":...,"calls":...},...} sorted by
  /// phase name.
  [[nodiscard]] std::string to_json() const;

  void clear() { phases_.clear(); }

 private:
  std::map<std::string, PhaseSample> phases_;
};

}  // namespace reshape::obs
