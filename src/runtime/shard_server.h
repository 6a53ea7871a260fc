// The multi-process shard server: a coordinator that partitions an
// engine's cell grid into contiguous ranges, hands them to worker
// processes over a local-socket wire protocol (runtime/wire.h), and
// folds the returned range outcomes in cell order — so the merged report
// and telemetry are byte-identical to the in-process run at any worker
// count.
//
// Two worker modes share one protocol:
//
//   * fork mode (ShardConfig::worker_command empty) — each worker is a
//     fork() of the coordinator process taken *before* any coordinator
//     thread starts (fork from a single-threaded parent is safe), so the
//     child inherits the trained engine, warmed workload caches, and the
//     serving closure by memory image. No exec, no re-training. This is
//     what the tests and the bench use.
//   * exec mode (worker_command set) — each worker fork+execs the given
//     argv with `--worker-fd 3` appended, the socket dup2()ed onto fd 3
//     (stdin/stdout untouched, so stray prints cannot corrupt the
//     protocol). The worker rebuilds its engine from the job name in the
//     work order — tools/shard_eval's registry does exactly that.
//
// Work is oversubscribed (ranges_per_worker contiguous chunks per worker,
// claimed atomically) so a slow worker sheds load to fast ones. Every
// reply is treated as hostile: its frame is read only as far as bytes
// actually arrive, and its payload is decoded and checked against the
// order inside the dispatch thread. Failures — short reads, kError
// frames, undecodable or mismatched replies, nonzero exits — are recorded
// per worker and the unfinished ranges are re-run in-process in ascending
// order, so a dead or lying worker degrades throughput, never the result.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "runtime/wire.h"

namespace reshape::runtime {

/// How to spread a run across processes.
struct ShardConfig {
  /// Worker processes to spawn. 0 runs every range in-process (useful as
  /// the degenerate baseline — still range-partitioned and folded).
  std::size_t workers = 2;

  /// Threads per worker's own cell pool (the workers × threads grid).
  std::size_t threads_per_worker = 1;

  /// Contiguous range chunks offered per worker; > 1 oversubscribes so
  /// fast workers steal load from slow ones without breaking cell order.
  std::size_t ranges_per_worker = 3;

  /// Job name workers resolve to an engine (exec mode registry key);
  /// fork-mode workers serve a closure and only use it as a cache key.
  std::string job = "inline";

  /// argv of the worker binary (exec mode); empty selects fork mode.
  std::vector<std::string> worker_command;
};

/// What a worker does with one work order: returns a complete reply frame
/// (kRange around the encoded outcome).
struct WorkerJob {
  std::function<std::vector<std::uint8_t>(const wire::WorkOrder&)> run;
};

/// Resolves a job name to its runner; called once per name per worker
/// process (serve() caches, so an exec-mode worker trains once).
using JobFactory = std::function<WorkerJob(std::string_view)>;

/// A contiguous [first, second) slice of the cell grid.
using CellRange = std::pair<std::size_t, std::size_t>;

/// Takes one range's reply payload: decodes it, checks that it answers
/// `order`, and keeps it. Throws on anything malformed or mismatched;
/// called concurrently for distinct ranges.
using ReplySink = std::function<void(std::size_t range,
                                     const wire::WorkOrder& order,
                                     std::span<const std::uint8_t> payload)>;

/// The worker side: serves work orders on `fd` until a shutdown frame or
/// EOF. Job exceptions become kError reply frames, not worker deaths.
void serve(int fd, const JobFactory& factory);

/// Balanced contiguous ranges covering [0, cell_count):
/// max(1, workers) × ranges_per_worker of them, at most one per cell.
[[nodiscard]] std::vector<CellRange> shard_ranges(std::size_t cell_count,
                                                  const ShardConfig& config);

/// The coordinator side: spawns config.workers processes (all before any
/// coordinator thread starts), dispatches one order per range, and hands
/// each reply to `accept` in the dispatch thread. Any failure — a dead
/// worker, a short or lying frame, a reply `accept` rejects — is recorded
/// and the range re-run in-process through `factory`'s runner, which also
/// builds the fork-mode serving closure. Returns one human-readable
/// failure per worker that failed (empty = clean run); every range has
/// been accepted regardless.
[[nodiscard]] std::vector<std::string> dispatch(
    std::span<const CellRange> ranges, obs::TelemetryConfig telemetry,
    const ShardConfig& config, const JobFactory& factory,
    const ReplySink& accept);

/// The serving closure of one engine (a pointer or shared_ptr to it):
/// applies the order's telemetry config when it differs (set_telemetry
/// can invalidate warmed caches), scores the range, and frames it.
template <typename EnginePtr>
[[nodiscard]] WorkerJob range_job(EnginePtr engine) {
  WorkerJob job;
  job.run = [engine](const wire::WorkOrder& order) {
    if (engine->telemetry_config() != order.telemetry) {
      engine->set_telemetry(order.telemetry);
    }
    return wire::encode_frame(
        wire::FrameType::kRange,
        wire::encode_range(engine->run_range(
            static_cast<std::size_t>(order.begin),
            static_cast<std::size_t>(order.end),
            static_cast<std::size_t>(order.threads))));
  };
  return job;
}

/// Runs any GridEngine across worker processes: prepare() the engine
/// before forking (children inherit the trained state), dispatch the
/// grid, decode and validate each reply, fold in range order. The
/// returned report — and the engine's merged telemetry — are
/// byte-identical to engine.run() at any worker/thread count.
/// `failures` (optional) receives dispatch()'s failure strings.
/// `factory` (default: serve `engine` itself) builds the fork-mode
/// serving closure and the in-process fallback runner.
template <typename Engine>
[[nodiscard]] auto run_sharded(Engine& engine, const ShardConfig& config,
                               std::vector<std::string>* failures = nullptr,
                               JobFactory factory = nullptr) {
  using Outcome = typename Engine::Outcome;
  engine.prepare();
  if (!factory) {
    factory = [&engine](std::string_view) { return range_job(&engine); };
  }
  const std::vector<CellRange> ranges =
      shard_ranges(engine.cell_count(), config);
  std::vector<Outcome> outcomes(ranges.size());
  std::vector<std::string> lost = dispatch(
      ranges, engine.telemetry_config(), config, factory,
      [&outcomes](std::size_t range, const wire::WorkOrder& order,
                  std::span<const std::uint8_t> payload) {
        Outcome outcome = wire::decode_range<Outcome>(payload);
        if (outcome.begin != order.begin || outcome.end != order.end ||
            outcome.cells.size() != outcome.end - outcome.begin) {
          throw wire::WireError{"worker answered a different range"};
        }
        outcomes[range] = std::move(outcome);
      });
  if (failures != nullptr) {
    *failures = std::move(lost);
  }
  return engine.fold(std::move(outcomes));
}

}  // namespace reshape::runtime
