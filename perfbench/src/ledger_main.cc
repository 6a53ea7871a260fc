// perfbench_ledger: the per-layer cost ledger of one workload, measured from
// outside the library.
//
// 1. Set the workload up once and build its 1-thread reference.
// 2. Time the workload's run back to back untraced, then traced (the
//    engine's phase profiler and the allocation counters on); the gap is
//    trace.overhead_pct. The traced repetitions give the pool's CPU/wall
//    ratio and the bytes and calls allocated per cell.
// 3. Replay every cell serially: time run_range(c, c+1, 1) as the cell
//    wall, and time the calls that cell makes into each layer's public
//    functions, invoked from here on the same inputs. Where the program
//    already laps a phase (the tuner's streaming/arbitration/adaptive
//    passes) the lap is read instead.
// 4. Reconcile: ledger.unattributed_share = 1 - sum(layer self time) /
//    sum(cell wall) must stay within kUnattributedBound.
//
// A layer the workload never calls reports 0.
//
//   perfbench_ledger --workload paper-grid --seed 1 --seconds 10
#include <algorithm>
#include <cmath>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc_hook.h"
#include "attack/classifier_attack.h"
#include "eval/session_eval.h"
#include "host.h"
#include "ml/mlp.h"
#include "ml/svm.h"
#include "runtime/evaluation_backend.h"
#include "runtime/wire.h"
#include "traffic/generator.h"
#include "util/rng.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace rt = reshape::runtime;
namespace tuning = reshape::core::tuning;
namespace obs = reshape::obs;
namespace traffic = reshape::traffic;

/// The reconciliation bound: at most this share of the summed cell wall
/// time may go unexplained by the layers (either way).
constexpr double kUnattributedBound = 0.15;

/// Serial replays of the campaign grids (their cells take milliseconds);
/// the tuner's cells take a third of a second, so it is replayed once.
constexpr int kCampaignPasses = 3;

/// Timed repetitions per phase, at least.
constexpr std::size_t kMinRepetitions = 2;

/// Defense columns of the ledger, in report order; a defense the workload
/// does not evaluate reports 0.
const std::vector<std::string> kDefenses = {"Original", "FH", "RA",
                                            "RR",       "OR", "Padding"};

/// Seconds and work counts accumulated over every replayed cell.
struct Ledger {
  std::size_t cells = 0;
  double cell_wall = 0.0;
  std::vector<double> cell_ms;

  double generate = 0.0;  // traffic: Scenario::generate
  std::uint64_t generated_packets = 0;
  bool arbitrated_generation = false;  // generation is the sim layer's

  std::map<std::string, std::pair<double, std::uint64_t>> defense;  // s, pkts
  double features = 0.0;
  std::uint64_t feature_packets = 0;
  std::uint64_t feature_rows = 0;
  std::uint64_t spanned_windows = 0;
  double svm = 0.0;
  double mlp = 0.0;
  double evaluate = 0.0;  // evaluate_sessions, children included

  double flow_tag = 0.0;
  std::uint64_t tagged_flows = 0;
  double audit = 0.0;
  std::uint64_t audited_packets = 0;
  double obs_merge = 0.0;  // per-cell snapshot + fold-order merge

  double streaming = 0.0;  // tuner laps
  double arbitration = 0.0;
  double adaptive = 0.0;
  std::uint64_t epochs = 0;

  double fold = 0.0;
  std::uint64_t wire_bytes = 0;
  double wire_encode = 0.0;
  double wire_decode = 0.0;

  [[nodiscard]] double defense_total() const {
    double total = 0.0;
    for (const auto& [name, entry] : defense) {
      total += entry.first;
    }
    return total;
  }
};

/// The timed repetitions of one phase.
struct Phase {
  std::vector<double> wall;
  std::vector<double> pool_cpu_per_wall;
  std::vector<double> alloc_bytes;
  std::vector<double> alloc_calls;
  std::size_t shard_failures = 0;
};

double median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : quartiles(v).median;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Linear-interpolated percentile of `v`, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Times `fn` and adds the elapsed seconds to `total`.
template <typename Fn>
auto timed(double& total, Fn&& fn) {
  const double start = wall_s();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    total += wall_s() - start;
  } else {
    auto result = fn();
    total += wall_s() - start;
    return result;
  }
}

/// Runs `run` back to back for `seconds` (at least kMinRepetitions times),
/// checking each report against the reference.
template <typename Run>
Phase timed_phase(Workload& workload, double seconds, Tally& tally, Run run) {
  Phase phase;
  const double deadline = wall_s() + seconds;
  while (phase.wall.size() < kMinRepetitions || wall_s() < deadline) {
    const UnstolenTimer timer;
    bool ran = true;
    try {
      run(phase);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: run threw: " << e.what() << "\n";
      ran = false;
    }
    phase.wall.push_back(timer.seconds());
    phase.shard_failures += workload.last_failures();
    tally.check("timed report equals the 1-thread reference",
                ran && workload.last_failures() == 0 &&
                    workload.last_report() == workload.reference());
  }
  return phase;
}

/// One in-process repetition with the phase profiler and the allocation
/// counters on; records the pool's CPU/wall and allocations per cell.
template <typename Run>
void counted_run(Phase& phase, const obs::PhaseProfiler& profiler,
                 std::size_t cells, Run run) {
  const AllocCounts before = alloc_counts();
  set_alloc_counting(true);
  run();
  set_alloc_counting(false);
  const AllocCounts after = alloc_counts();
  const auto laps = profiler.snapshot();
  const auto pooled = laps.find("cells");
  if (pooled != laps.end()) {
    phase.pool_cpu_per_wall.push_back(
        ratio(static_cast<double>(pooled->second.cpu_us),
              static_cast<double>(pooled->second.wall_us)));
  }
  phase.alloc_bytes.push_back(static_cast<double>(after.bytes - before.bytes) /
                              static_cast<double>(cells));
  phase.alloc_calls.push_back(static_cast<double>(after.calls - before.calls) /
                              static_cast<double>(cells));
}

// ------------------------------------------------------------- campaign

/// The harness's two attackers, rebuilt here from its corpus config so
/// their predict cost can be timed from outside.
struct Attackers {
  reshape::attack::AttackConfig config;
  std::unique_ptr<reshape::attack::ClassifierAttack> svm;
  std::unique_ptr<reshape::attack::ClassifierAttack> mlp;
};

Attackers train_attackers(const reshape::eval::ExperimentConfig& training) {
  std::vector<traffic::Trace> corpus;
  for (const traffic::AppType app : traffic::kAllApps) {
    for (std::size_t s = 0; s < training.train_sessions_per_app; ++s) {
      corpus.push_back(traffic::generate_trace(
          app, training.train_session_duration,
          reshape::eval::ExperimentHarness::session_stream_seed(training.seed,
                                                                app, s, true),
          training.session_jitter));
    }
  }
  Attackers attackers;
  attackers.config = {training.window, training.feature_set, 2};
  reshape::ml::SvmConfig svm;
  svm.seed = reshape::util::splitmix64(training.seed ^ 0x5111ULL);
  reshape::ml::MlpConfig mlp;
  mlp.seed = reshape::util::splitmix64(training.seed ^ 0x3111ULL);
  attackers.svm = std::make_unique<reshape::attack::ClassifierAttack>(
      attackers.config, std::make_unique<reshape::ml::SvmClassifier>(svm));
  attackers.mlp = std::make_unique<reshape::attack::ClassifierAttack>(
      attackers.config, std::make_unique<reshape::ml::MlpClassifier>(mlp));
  attackers.svm->train(corpus);
  attackers.mlp->train(corpus);
  return attackers;
}

/// W-windows a flow spans, usable or not (windows anchor on the first
/// packet, as the extractor's do).
std::uint64_t spanned_windows(const traffic::Trace& flow,
                              reshape::util::Duration w) {
  const auto times = flow.times_us();
  if (times.empty()) {
    return 0;
  }
  return static_cast<std::uint64_t>((times.back() - times.front()) /
                                    w.count_us()) +
         1;
}

void replay_campaign(CampaignWorkload& workload, Ledger& ledger,
                     Tally& tally) {
  rt::CampaignEngine& engine = workload.engine();
  const rt::CampaignSpec& spec = workload.spec();
  const obs::TelemetryConfig telemetry = workload.telemetry();
  engine.set_telemetry(telemetry);
  const rt::CellGrid grid{spec.defenses.size(), spec.scenarios.size(),
                          spec.shards};
  const Attackers attackers = train_attackers(spec.training);
  const bool auditing = telemetry.privacy;
  std::optional<reshape::attack::audit::NearestCentroidProbe> probe;
  if (auditing) {
    const reshape::attack::adaptive::AdaptiveConfig adaptive{};
    probe.emplace(rt::bootstrap_profile(spec.training, adaptive),
                  adaptive.attack);
  }

  // The workloads every defense row shares (the engine memoizes them, so
  // generation is set-up work, outside the cell wall).
  std::vector<std::vector<traffic::Trace>> slots(grid.scenarios * grid.shards);
  for (std::size_t s = 0; s < grid.scenarios; ++s) {
    for (std::size_t shard = 0; shard < grid.shards; ++shard) {
      const std::size_t slot = s * grid.shards + shard;
      reshape::util::Rng rng = rt::cell_streams(spec.seed, grid, slot).workload;
      slots[slot] = timed(ledger.generate,
                          [&] { return spec.scenarios[s].generate(rng); });
      ledger.generated_packets += packets_of(slots[slot]);
    }
  }
  ledger.arbitrated_generation = workload.name() == kDense10k;

  reshape::eval::EvalScratch scratch;
  std::vector<reshape::features::WindowFeatures> windows;
  std::vector<rt::CampaignRangeOutcome> outcomes(grid.cell_count());
  for (int pass = 0; pass < kCampaignPasses; ++pass) {
    for (std::size_t c = 0; c < grid.cell_count(); ++c) {
      const rt::CellGrid::Cell cell = grid.decompose(c);
      const rt::CellStreams streams = rt::cell_streams(spec.seed, grid, c);
      const std::vector<traffic::Trace>& sessions =
          slots[grid.workload_id(cell)];
      const rt::DefenseSpec& defense = spec.defenses[cell.defense];

      auto& [defense_s, defense_packets] = ledger.defense[defense.name];
      std::vector<reshape::eval::DefendedSession> defended =
          timed(defense_s, [&] {
            return reshape::eval::apply_defense(defense.factory, sessions,
                                                streams.defense_seed);
          });
      defense_packets += packets_of(sessions);

      for (const reshape::eval::DefendedSession& session : defended) {
        for (const traffic::Trace& flow : session.flows) {
          const auto rows = timed(ledger.features, [&] {
            return reshape::attack::feature_rows_of(flow, attackers.config,
                                                    windows);
          });
          ledger.feature_packets += flow.size();
          ledger.feature_rows += rows.size();
          ledger.spanned_windows +=
              spanned_windows(flow, attackers.config.window);
          (void)timed(ledger.svm,
                      [&] { return attackers.svm->classify_rows(rows); });
          (void)timed(ledger.mlp,
                      [&] { return attackers.mlp->classify_rows(rows); });
        }
      }

      std::vector<reshape::eval::DefendedSession> scored;
      (void)timed(ledger.evaluate, [&] {
        return engine.harness().evaluate_sessions(
            defense.factory, defense.name, sessions, streams.defense_seed,
            &scratch, auditing ? &scored : nullptr);
      });
      if (auditing) {
        const auto flows = timed(ledger.flow_tag, [&] {
          return rt::rssi_tagged_flows(scored, streams.rssi, rt::RssiModel{});
        });
        ledger.tagged_flows += flows.size();
        for (const auto& flow : flows) {
          ledger.audited_packets += flow.flow.size();
        }
        obs::WindowedRegistry registry{telemetry.window};
        const obs::LabelSet labels{{"defense", defense.name},
                                   {"scenario", "ledger"},
                                   {"shard", std::to_string(cell.shard)}};
        timed(ledger.audit, [&] {
          rt::audit_flows(flows, &*probe, registry, labels);
        });
        (void)timed(ledger.obs_merge, [&] { return registry.snapshot(); });
      }

      const double start = wall_s();
      outcomes[c] = engine.run_range(c, c + 1, 1);
      const double wall = wall_s() - start;
      ledger.cell_wall += wall;
      ledger.cell_ms.push_back(1e3 * wall);
      ++ledger.cells;
    }
  }

  // Once per pass, like the cell walls: the fold-order merge of the
  // per-cell snapshots (the engine merges nothing with telemetry off) and,
  // when sharded, each cell's trip through the wire format.
  for (int pass = 0; pass < kCampaignPasses; ++pass) {
    if (telemetry.any()) {
      obs::MetricsSnapshot metrics;
      obs::WindowedSnapshot merged;
      timed(ledger.obs_merge, [&] {
        for (const rt::CampaignRangeOutcome& outcome : outcomes) {
          metrics.merge(outcome.metrics);
          merged.merge(outcome.windows);
        }
      });
    }
    if (workload.sharded()) {
      for (const rt::CampaignRangeOutcome& outcome : outcomes) {
        const auto bytes = timed(ledger.wire_encode, [&] {
          return rt::wire::encode_campaign_range(outcome);
        });
        ledger.wire_bytes += bytes.size();
        (void)timed(ledger.wire_decode, [&] {
          return rt::wire::decode_campaign_range(bytes);
        });
      }
    }
  }

  std::vector<rt::CampaignRangeOutcome> ranges = outcomes;
  const rt::CampaignReport folded =
      timed(ledger.fold, [&] { return engine.fold(std::move(ranges)); });
  tally.check("per-cell range fold equals the 1-thread reference",
              folded.to_json() == workload.reference());
}

// --------------------------------------------------------------- tuning

double lap_s(const std::map<std::string, obs::PhaseSample>& laps,
             const std::string& phase) {
  const auto it = laps.find(phase);
  return it == laps.end() ? 0.0 : static_cast<double>(it->second.wall_us) * 1e-6;
}

void replay_tuning(TuningWorkload& workload, Ledger& ledger, Tally& tally) {
  tuning::ParameterTuner& tuner = workload.tuner();
  obs::TelemetryConfig profiling;
  profiling.profiling = true;
  tuner.set_telemetry(profiling);
  const tuning::TunerSpec& spec = tuner.spec();
  const rt::CellGrid grid{tuner.candidates().size(), 1, spec.shards};

  std::vector<tuning::TuningRangeOutcome> outcomes;
  for (std::size_t c = 0; c < grid.cell_count(); ++c) {
    // The evaluator regenerates its arena per cell from the cell's
    // workload stream; generate it once more here to time it.
    reshape::util::Rng rng = rt::cell_streams(spec.seed, grid, c).workload;
    const auto sessions =
        timed(ledger.generate, [&] { return spec.scenario.generate(rng); });
    ledger.generated_packets += packets_of(sessions);

    const auto before = tuner.profiler().snapshot();
    const double start = wall_s();
    outcomes.push_back(tuner.run_range(c, c + 1, 1));
    const double wall = wall_s() - start;
    const auto after = tuner.profiler().snapshot();
    ledger.cell_wall += wall;
    ledger.cell_ms.push_back(1e3 * wall);
    ++ledger.cells;
    ledger.streaming += lap_s(after, "streaming") - lap_s(before, "streaming");
    ledger.arbitration +=
        lap_s(after, "arbitration") - lap_s(before, "arbitration");
    ledger.adaptive += lap_s(after, "adaptive") - lap_s(before, "adaptive");
    ledger.epochs += outcomes.back().cells.front().epochs.size();
  }
  const tuning::TuningReport folded =
      timed(ledger.fold, [&] { return tuner.fold(std::move(outcomes)); });
  tally.check("per-cell range fold equals the 1-thread reference",
              folded.to_json() == workload.reference());
  tuner.set_telemetry(obs::TelemetryConfig{});
}

// ----------------------------------------------------------------- main

int run(const Args& args) {
  const std::size_t threads = nproc();
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, args.seed, threads);
  workload->set_up();
  Tally tally;
  workload->build_reference(tally);
  const std::size_t cells = workload->cells();

  auto* campaign = dynamic_cast<CampaignWorkload*>(workload.get());
  auto* tuner = dynamic_cast<TuningWorkload*>(workload.get());
  obs::TelemetryConfig traced_config =
      campaign != nullptr ? campaign->telemetry() : obs::TelemetryConfig{};
  traced_config.profiling = true;
  const auto set_telemetry = [&](const obs::TelemetryConfig& config) {
    if (campaign != nullptr) {
      campaign->engine().set_telemetry(config);
    } else {
      tuner->tuner().set_telemetry(config);
    }
  };
  const obs::PhaseProfiler& profiler = campaign != nullptr
                                           ? campaign->engine().profiler()
                                           : tuner->tuner().profiler();

  // Untraced, then traced timed phases; each gets half the run's seconds.
  const UnstolenTimer phases;
  const Phase untraced = timed_phase(*workload, args.seconds / 2, tally,
                                     [&](Phase&) { workload->run_once(); });
  set_telemetry(traced_config);
  const bool in_process = campaign == nullptr || !campaign->sharded();
  Phase traced =
      timed_phase(*workload, args.seconds / 2, tally, [&](Phase& phase) {
        if (in_process) {
          counted_run(phase, profiler, cells, [&] { workload->run_once(); });
        } else {
          workload->run_once();
        }
      });
  if (!in_process) {
    // Forked workers keep their laps and allocations to themselves: read
    // the pool and allocator figures off in-process runs of the same grid.
    for (std::size_t i = 0; i < kMinRepetitions; ++i) {
      counted_run(traced, profiler, cells,
                  [&] { (void)campaign->engine().run(threads); });
    }
  }
  set_telemetry(campaign != nullptr ? campaign->telemetry()
                                    : obs::TelemetryConfig{});
  double steal = 0.0;
  (void)phases.seconds(&steal);

  Ledger ledger;
  if (campaign != nullptr) {
    replay_campaign(*campaign, ledger, tally);
  } else {
    replay_tuning(*tuner, ledger, tally);
  }

  const double features_ml =
      ledger.defense_total() + ledger.features + ledger.svm + ledger.mlp;
  const double self =
      campaign != nullptr
          ? ledger.evaluate + ledger.flow_tag + ledger.audit + ledger.obs_merge
          : ledger.generate + ledger.streaming + ledger.arbitration +
                ledger.adaptive;
  const double unattributed = 1.0 - ratio(self, ledger.cell_wall);
  tally.check("ledger reconciles: |unattributed share| within bound",
              std::abs(unattributed) <= kUnattributedBound);

  const double n = static_cast<double>(ledger.cells);
  const double rows = static_cast<double>(ledger.feature_rows);
  const bool generation_is_sim = ledger.arbitrated_generation;
  const double generate_ns =
      1e9 * ratio(ledger.generate, static_cast<double>(ledger.generated_packets));
  std::vector<Metric> metrics = {
      {"traffic.generate_ns_per_packet", generation_is_sim ? 0.0 : generate_ns,
       "ns"},
      {"sim.arbitrated_generate_ns_per_frame",
       generation_is_sim ? generate_ns : 0.0, "ns"},
      {"sim.arbitration_ms_per_cell", 1e3 * ratio(ledger.arbitration, n), "ms"},
  };
  for (const std::string& name : kDefenses) {
    const auto it = ledger.defense.find(name);
    metrics.push_back(
        {"core.defense_ns_per_packet." + name,
         it == ledger.defense.end()
             ? 0.0
             : 1e9 * ratio(it->second.first,
                           static_cast<double>(it->second.second)),
         "ns"});
  }
  const double wire_bytes = static_cast<double>(ledger.wire_bytes);
  const std::vector<Metric> rest = {
      {"core.streaming_ms_per_cell", 1e3 * ratio(ledger.streaming, n), "ms"},
      {"features.ns_per_packet",
       1e9 * ratio(ledger.features, static_cast<double>(ledger.feature_packets)),
       "ns"},
      {"features.us_per_window", 1e6 * ratio(ledger.features, rows), "us"},
      {"features.usable_window_share",
       ratio(rows, static_cast<double>(ledger.spanned_windows)), "share"},
      {"ml.svm_predict_us_per_window", 1e6 * ratio(ledger.svm, rows), "us"},
      {"ml.mlp_predict_us_per_window", 1e6 * ratio(ledger.mlp, rows), "us"},
      {"attack.flow_tag_ns_per_flow",
       1e9 * ratio(ledger.flow_tag, static_cast<double>(ledger.tagged_flows)),
       "ns"},
      {"attack.audit_ns_per_packet",
       1e9 * ratio(ledger.audit, static_cast<double>(ledger.audited_packets)),
       "ns"},
      {"attack.audit_share", ratio(ledger.audit, ledger.cell_wall), "share"},
      {"attack.adaptive_ms_per_epoch",
       1e3 * ratio(ledger.adaptive, static_cast<double>(ledger.epochs)), "ms"},
      {"eval.score_self_ms_per_cell",
       campaign != nullptr ? 1e3 * ratio(ledger.evaluate - features_ml, n)
                           : 0.0,
       "ms"},
      {"runtime.cell_ms_p50", percentile(ledger.cell_ms, 0.5), "ms"},
      {"runtime.cell_ms_p90", percentile(ledger.cell_ms, 0.9), "ms"},
      {"runtime.pool_cpu_per_wall", median(traced.pool_cpu_per_wall), "ratio"},
      {"runtime.alloc_bytes_per_cell", median(traced.alloc_bytes), "bytes"},
      {"runtime.allocs_per_cell", median(traced.alloc_calls), "count"},
      {"runtime.fold_ms", 1e3 * ledger.fold, "ms"},
      {"runtime.wire_bytes_per_cell", ratio(wire_bytes, n), "bytes"},
      {"runtime.wire_encode_ns_per_byte",
       1e9 * ratio(ledger.wire_encode, wire_bytes), "ns"},
      {"runtime.wire_decode_ns_per_byte",
       1e9 * ratio(ledger.wire_decode, wire_bytes), "ns"},
      {"runtime.shard_failures",
       static_cast<double>(untraced.shard_failures + traced.shard_failures),
       "count"},
      {"obs.snapshot_merge_us_per_cell", 1e6 * ratio(ledger.obs_merge, n),
       "us"},
      {"ledger.unattributed_share", unattributed, "share"},
      {"ledger.defense_features_ml_share", ratio(features_ml, ledger.cell_wall),
       "share"},
      {"ledger.audit_tag_wire_merge_share",
       ratio(ledger.flow_tag + ledger.audit + ledger.obs_merge +
                 ledger.wire_encode + ledger.wire_decode,
             ledger.cell_wall),
       "share"},
      {"ledger.streaming_arbitration_adaptive_share",
       ratio(ledger.streaming + ledger.arbitration + ledger.adaptive,
             ledger.cell_wall),
       "share"},
      {"trace.overhead_pct",
       100.0 * (median(traced.wall) / median(untraced.wall) - 1.0), "%"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());

  Context context;
  context.workload = args.workload;
  context.seed = args.seed;
  context.threads = threads;
  context.workers = workload->workers();
  context.repetitions = untraced.wall.size() + traced.wall.size();
  context.setups = 1;
  context.sessions_per_run = workload->sessions_per_run();
  context.cells = cells;
  context.reference_digest = digest(workload->reference());
  context.steal_share = steal;
  context.spreads = {{"untraced_run_s", quartiles(untraced.wall)},
                     {"traced_run_s", quartiles(traced.wall)},
                     {"cell_ms", quartiles(ledger.cell_ms)}};
  print_result(context, tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_ledger: " << e.what() << "\n";
    return 1;
  }
}
