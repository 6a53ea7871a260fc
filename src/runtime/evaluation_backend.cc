#include "runtime/evaluation_backend.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "traffic/generator.h"
#include "util/check.h"

namespace reshape::runtime {

CellGrid::Cell CellGrid::decompose(std::size_t cell_id) const {
  util::require(cell_id < cell_count(), "CellGrid: cell_id out of range");
  const std::size_t per_defense = scenarios * shards;
  return Cell{cell_id / per_defense, (cell_id % per_defense) / shards,
              cell_id % shards};
}

CellStreams cell_streams(std::uint64_t seed, const CellGrid& grid,
                         std::size_t cell_id) {
  const CellGrid::Cell cell = grid.decompose(cell_id);
  const util::Rng base{seed};
  return CellStreams{base.fork(1).fork(grid.workload_id(cell)),
                     base.fork(2).fork(cell_id).seed(),
                     base.fork(3).fork(cell_id),
                     base.fork(4).fork(cell_id)};
}

void run_cells(std::size_t cells, std::size_t threads,
               const std::function<void(std::size_t, WorkerArena&)>& run_one,
               obs::PhaseProfiler* profiler) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) {
      threads = 1;
    }
  }
  const auto timed = [&run_one, profiler](std::size_t c, WorkerArena& arena) {
    const auto pooled = obs::PhaseProfiler::time(profiler, "cells");
    const auto per_cell =
        obs::PhaseProfiler::time(profiler, "cell/" + std::to_string(c));
    run_one(c, arena);
  };

  if (threads <= 1 || cells <= 1) {
    WorkerArena arena;
    arena.eval.profiler = profiler;
    for (std::size_t c = 0; c < cells; ++c) {
      timed(c, arena);
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&] {
    WorkerArena arena;  // private to this worker, reused across its cells
    arena.eval.profiler = profiler;
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= cells || abort.load(std::memory_order_relaxed)) {
        return;
      }
      try {
        timed(c, arena);
      } catch (...) {
        abort.store(true, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock{error_mutex};
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(std::min(threads, cells));
  for (std::size_t t = 0; t < std::min(threads, cells); ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

ml::Dataset bootstrap_profile(const eval::ExperimentConfig& bootstrap,
                              const attack::adaptive::AdaptiveConfig& attacker) {
  std::vector<traffic::Trace> corpus;
  corpus.reserve(traffic::kAppCount * bootstrap.train_sessions_per_app);
  for (const traffic::AppType app : traffic::kAllApps) {
    for (std::size_t s = 0; s < bootstrap.train_sessions_per_app; ++s) {
      corpus.push_back(traffic::generate_trace(
          app, bootstrap.train_session_duration,
          eval::ExperimentHarness::session_stream_seed(bootstrap.seed, app, s,
                                                       /*training=*/true),
          bootstrap.session_jitter));
    }
  }
  return attack::adaptive::AdaptiveAttacker::profile(corpus, attacker);
}

std::vector<attack::adaptive::ObservedFlow> rssi_tagged_flows(
    std::span<eval::DefendedSession> sessions, const util::Rng& rssi_rng,
    const RssiModel& model) {
  util::require(model.min_dbm <= model.max_dbm,
                "rssi_tagged_flows: bad RSSI range");
  std::vector<attack::adaptive::ObservedFlow> flows;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    util::Rng session_rssi = rssi_rng.fork(s);
    const double station_mean =
        model.min_dbm == model.max_dbm
            ? model.min_dbm
            : session_rssi.uniform_real(model.min_dbm, model.max_dbm);
    for (traffic::Trace& stream : sessions[s].flows) {
      attack::adaptive::ObservedFlow flow;
      // Synthetic locally-administered MAC, unique per flow in the cell.
      flow.address =
          mac::MacAddress::from_u64(0x020000000000ULL + flows.size() + 1);
      flow.mean_rssi =
          station_mean + session_rssi.normal(0.0, model.flow_jitter_db);
      flow.flow = std::move(stream);
      flows.push_back(std::move(flow));
    }
  }
  return flows;
}

std::vector<attack::adaptive::EpochScore> run_adaptive_flows(
    const ml::Dataset& base, const attack::adaptive::AdaptiveConfig& config,
    const attack::adaptive::ClassifierFactory& make_classifier,
    std::span<const attack::adaptive::ObservedFlow> flows) {
  attack::adaptive::AdaptiveAttacker attacker{config, make_classifier};
  attacker.bootstrap(base);  // copies the shared raw rows
  return attacker.run_session(flows);
}

void audit_flows(std::span<const attack::adaptive::ObservedFlow> flows,
                 const attack::audit::NearestCentroidProbe* probe,
                 obs::WindowedRegistry& windows, const obs::LabelSet& labels,
                 attack::audit::AuditConfig config) {
  config.window = windows.window();
  attack::audit::LeakageAuditor auditor{config};
  auditor.set_probe(probe);
  for (const attack::adaptive::ObservedFlow& flow : flows) {
    auditor.observe_flow(flow.address.to_u64(), flow.flow.records(),
                         flow.mean_rssi);
  }
  auditor.publish(windows, labels);
}

}  // namespace reshape::runtime
