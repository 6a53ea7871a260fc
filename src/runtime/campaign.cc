#include "runtime/campaign.h"

#include <sstream>
#include <utility>

#include "runtime/evaluation_backend.h"
#include "runtime/report_json.h"

namespace reshape::runtime {

namespace {

using detail::cell_labels;
using detail::json_escape;
using detail::json_number;

void append_evaluation_fields(std::ostringstream& os,
                              const eval::DefenseEvaluation& e) {
  os << "\"classifier\":\"" << json_escape(e.classifier_name) << "\","
     << "\"windows\":" << e.confusion.total() << ","
     << "\"mean_accuracy\":" << json_number(e.mean_accuracy) << ","
     << "\"mean_false_positive\":" << json_number(e.mean_false_positive)
     << ",\"mean_overhead\":" << json_number(e.mean_overhead)
     << ",\"accuracy\":[";
  for (std::size_t i = 0; i < traffic::kAppCount; ++i) {
    os << (i == 0 ? "" : ",") << json_number(e.accuracy[i]);
  }
  os << "],\"overhead\":[";
  for (std::size_t i = 0; i < traffic::kAppCount; ++i) {
    os << (i == 0 ? "" : ",") << json_number(e.overhead[i]);
  }
  os << "]";
}

}  // namespace

const CellAggregate& CampaignReport::aggregate(
    std::string_view defense, std::string_view scenario) const {
  return detail::find_aggregate(aggregates, defense, scenario,
                                "CampaignReport");
}

std::string CampaignReport::to_json() const {
  std::ostringstream os;
  os << "{\"seed\":" << seed << ",\"shards\":" << shards << ",\"cells\":[";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const CellResult& cell = cells[c];
    os << (c == 0 ? "" : ",") << "{\"defense\":" << cell.defense_index
       << ",\"scenario\":" << cell.scenario_index
       << ",\"shard\":" << cell.shard
       << ",\"sessions\":" << cell.session_count << ",";
    append_evaluation_fields(os, cell.evaluation);
    os << "}";
  }
  os << "],\"aggregates\":[";
  for (std::size_t a = 0; a < aggregates.size(); ++a) {
    const CellAggregate& agg = aggregates[a];
    os << (a == 0 ? "" : ",") << "{\"defense\":\""
       << json_escape(agg.defense) << "\",\"scenario\":\""
       << json_escape(agg.scenario) << "\",\"shards\":" << agg.shards << ",";
    append_evaluation_fields(os, agg.evaluation);
    os << "}";
  }
  os << "]}";
  return os.str();
}

CampaignEngine::CampaignEngine(CampaignSpec spec)
    : spec_{std::move(spec)}, harness_{spec_.training} {
  detail::require_defense_grid(spec_, "CampaignEngine");
  const std::size_t workload_slots = spec_.scenarios.size() * spec_.shards;
  workload_once_ = std::make_unique<std::once_flag[]>(workload_slots);
  workloads_.resize(workload_slots);
  offered_once_ = std::make_unique<std::once_flag[]>(workload_slots);
  offered_windows_.assign(workload_slots, nullptr);
}

void CampaignEngine::set_telemetry(obs::TelemetryConfig config) {
  GridEngine::set_telemetry(config);
  // The cached offered-load reductions are keyed on the window length;
  // rebuild them lazily under the (possibly new) config.
  const std::size_t workload_slots = spec_.scenarios.size() * spec_.shards;
  offered_once_ = std::make_unique<std::once_flag[]>(workload_slots);
  offered_windows_.assign(workload_slots, nullptr);
}

void CampaignEngine::train() {
  harness_.train();
  if (telemetry_.config.privacy && !probe_) {
    // The attacker proxy profiles the same clean corpus the adaptive
    // adversary bootstraps from — built once per engine, reused by every
    // cell and every later run().
    const attack::adaptive::AdaptiveConfig adaptive{};
    probe_.emplace(bootstrap_profile(spec_.training, adaptive),
                   adaptive.attack);
  }
}

void CampaignEngine::prepare() {
  train();
  warm_workloads();
}

CellResult CampaignEngine::run_cell(std::size_t cell_id, WorkerArena& arena,
                                    obs::WindowedRegistry* windows) const {
  const CellGrid g = grid();
  const CellGrid::Cell cell = g.decompose(cell_id);
  CellStreams streams = cell_streams(spec_.seed, g, cell_id);

  CellResult result;
  result.defense_index = cell.defense;
  result.scenario_index = cell.scenario;
  result.shard = cell.shard;

  const DefenseSpec& defense = spec_.defenses[cell.defense];
  const std::size_t workload_slot = g.workload_id(cell);
  const std::vector<traffic::Trace>& sessions = workload(workload_slot);
  result.session_count = sessions.size();
  // The leakage audit needs the exact defended flows the attacker was
  // scored on; evaluate_sessions hands them back instead of applying the
  // defense a second time.
  const bool auditing = windows != nullptr && telemetry_.config.privacy;
  std::vector<eval::DefendedSession> defended;
  result.evaluation = harness_.evaluate_sessions(
      defense.factory, defense.name, sessions, streams.defense_seed,
      &arena.eval, auditing ? &defended : nullptr);
  if (auditing) {
    // Tag flows with §V-A power signatures from the cell's (hitherto
    // unused) RSSI fork — full-cell keyed, observation-only: the report
    // never reads these draws.
    const std::vector<attack::adaptive::ObservedFlow> flows =
        rssi_tagged_flows(defended, streams.rssi, RssiModel{});
    attack::audit::AuditConfig audit;
    audit.per_pair_series = telemetry_.config.privacy_pairs;
    audit_flows(flows, probe_ ? &*probe_ : nullptr, *windows,
                cell_labels(spec_, result), audit);
  }
  if (windows != nullptr && telemetry_.config.windowed) {
    // Offered load per window — the time-resolved workload shape the
    // drift detectors slice (count = packets, sum = bytes per window).
    // The reduction only reads the pre-defense workload, so the first
    // cell on this (scenario, shard) sweeps the packet columns once and
    // every defense row folds the cached points (commutative merge: the
    // result is byte-identical to reducing per cell).
    std::call_once(offered_once_[workload_slot], [&] {
      obs::WindowedSeries reduced{telemetry_.config.window};
      for (const traffic::Trace& session : sessions) {
        publish_windowed(reduced, session);
      }
      offered_windows_[workload_slot] =
          std::make_shared<const std::vector<obs::WindowPoint>>(
              reduced.points());
    });
    obs::WindowedSeries& series =
        windows->series("campaign_offered_bytes", cell_labels(spec_, result));
    for (const obs::WindowPoint& point : *offered_windows_[workload_slot]) {
      series.fold(point.window, point.value);
    }
  }
  return result;
}

const std::vector<traffic::Trace>& CampaignEngine::workload(
    std::size_t slot) const {
  // The first cell on a (scenario, shard) materializes the workload; the
  // other defenses (and later run() calls) reuse it. The workload stream
  // is keyed on exactly that pair — slot s is the cell id of defense row
  // 0 — so the cached sessions are the ones any cell would generate.
  std::call_once(workload_once_[slot], [&] {
    const CellGrid g = grid();
    util::Rng stream = cell_streams(spec_.seed, g, slot).workload;
    workloads_[slot] = std::make_shared<const std::vector<traffic::Trace>>(
        spec_.scenarios[g.decompose(slot).scenario].generate(stream));
  });
  return *workloads_[slot];
}

void CampaignEngine::warm_workloads() {
  for (std::size_t slot = 0; slot < spec_.scenarios.size() * spec_.shards;
       ++slot) {
    (void)workload(slot);
  }
}

// Publishes one cell's scored result into a (private, per-cell)
// registry: windows and correct-window tallies as counters so shard
// merges recompute accuracy from summed evidence, point metrics as
// per-cell gauges (unique labels — never merged across cells).
void CampaignEngine::publish_cell(obs::MetricsRegistry& registry,
                                  std::size_t /*cell_id*/,
                                  const CellResult& cell) const {
  const obs::LabelSet labels = cell_labels(spec_, cell);
  registry.counter("campaign_sessions_total", labels)
      .add(cell.session_count);
  const ml::ConfusionMatrix& confusion = cell.evaluation.confusion;
  std::uint64_t correct = 0;
  for (int c = 0; c < confusion.num_classes(); ++c) {
    correct += confusion.count(c, c);
  }
  registry.counter("campaign_windows_total", labels).add(confusion.total());
  registry.counter("campaign_windows_correct_total", labels).add(correct);
  registry.gauge("campaign_mean_accuracy_percent", labels)
      .set(cell.evaluation.mean_accuracy);
  registry.gauge("campaign_mean_overhead_percent", labels)
      .set(cell.evaluation.mean_overhead);
}

CampaignReport CampaignEngine::aggregate(
    std::vector<CellResult> cells) const {
  CampaignReport report;
  report.seed = spec_.seed;
  report.shards = spec_.shards;
  report.cells = std::move(cells);

  // Shard-merge each (defense, scenario) in grid order. Aggregation runs
  // on the main thread over deterministic cell results, so the report is
  // identical whatever the worker count was.
  for (std::size_t d = 0; d < spec_.defenses.size(); ++d) {
    for (std::size_t s = 0; s < spec_.scenarios.size(); ++s) {
      CellAggregate agg;
      agg.defense = spec_.defenses[d].name;
      agg.scenario = spec_.scenarios[s].name();
      agg.shards = spec_.shards;
      agg.evaluation.defense_name = agg.defense;

      ml::ConfusionMatrix merged{static_cast<int>(traffic::kAppCount)};
      std::array<double, traffic::kAppCount> overhead_sum{};
      double mean_overhead_sum = 0.0;
      for (std::size_t shard = 0; shard < spec_.shards; ++shard) {
        const std::size_t cell_id =
            (d * spec_.scenarios.size() + s) * spec_.shards + shard;
        const eval::DefenseEvaluation& e = report.cells[cell_id].evaluation;
        merged.merge(e.confusion);
        for (std::size_t i = 0; i < traffic::kAppCount; ++i) {
          overhead_sum[i] += e.overhead[i];
        }
        // Per-cell mean_overhead already averages over the apps the
        // workload contains; averaging those means keeps partial-app
        // scenarios undiluted by absent apps.
        mean_overhead_sum += e.mean_overhead;
        if (shard == 0) {
          agg.evaluation.classifier_name = e.classifier_name;
        } else if (agg.evaluation.classifier_name != e.classifier_name) {
          agg.evaluation.classifier_name = "mixed";
        }
      }

      agg.evaluation.confusion = merged;
      agg.evaluation.mean_accuracy = 100.0 * merged.mean_accuracy();
      agg.evaluation.mean_false_positive =
          100.0 * merged.mean_false_positive();
      for (std::size_t i = 0; i < traffic::kAppCount; ++i) {
        agg.evaluation.accuracy[i] =
            100.0 * merged.accuracy(static_cast<int>(i));
        agg.evaluation.false_positive[i] =
            100.0 * merged.false_positive(static_cast<int>(i));
        agg.evaluation.overhead[i] =
            overhead_sum[i] / static_cast<double>(spec_.shards);
      }
      agg.evaluation.mean_overhead =
          mean_overhead_sum / static_cast<double>(spec_.shards);
      report.aggregates.push_back(std::move(agg));
    }
  }
  return report;
}

}  // namespace reshape::runtime
