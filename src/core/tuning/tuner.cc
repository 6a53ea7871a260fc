#include "core/tuning/tuner.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/stat_views.h"
#include "runtime/report_json.h"
#include "util/check.h"

namespace reshape::core::tuning {

namespace {

using runtime::detail::json_escape;
using runtime::detail::json_number;

void append_metrics(std::ostringstream& os, const CandidateMetrics& m) {
  os << "\"epochs_total\":" << m.epochs_total
     << ",\"epochs_survived\":" << m.epochs_survived
     << ",\"crossed\":" << (m.crossed ? 1 : 0)
     << ",\"final_adaptive_accuracy\":"
     << json_number(m.final_adaptive_accuracy)
     << ",\"final_static_accuracy\":" << json_number(m.final_static_accuracy)
     << ",\"deadline_miss_rate\":" << json_number(m.deadline_miss_rate)
     << ",\"mean_queueing_delay_us\":"
     << json_number(m.mean_queueing_delay_us)
     << ",\"access_delay_p50_us\":" << json_number(m.access_delay_p50_us)
     << ",\"access_delay_p90_us\":" << json_number(m.access_delay_p90_us)
     << ",\"access_delay_p99_us\":" << json_number(m.access_delay_p99_us)
     << ",\"frames_dropped\":" << m.frames_dropped
     << ",\"frame_drop_rate\":" << json_number(m.frame_drop_rate)
     << ",\"overhead_percent\":" << json_number(m.overhead_percent);
}

void append_config(std::ostringstream& os, const TunedConfiguration& c) {
  os << "\"name\":\"" << json_escape(c.name)
     << "\",\"interfaces\":" << c.interfaces << ",\"bounds\":[";
  for (std::size_t j = 0; j < c.range_bounds.size(); ++j) {
    os << (j == 0 ? "" : ",") << c.range_bounds[j];
  }
  os << "],\"assignment\":[";
  for (std::size_t j = 0; j < c.assignment.size(); ++j) {
    os << (j == 0 ? "" : ",") << c.assignment[j];
  }
  os << "],\"pad_to\":[";
  for (std::size_t i = 0; i < c.pad_to.size(); ++i) {
    os << (i == 0 ? "" : ",") << c.pad_to[i];
  }
  os << "]";
}

}  // namespace

const CandidateReport& TuningReport::selected() const {
  if (!selected_index.has_value()) {
    throw std::out_of_range{
        "TuningReport: no candidate passed the hard budgets"};
  }
  return candidates[*selected_index];
}

const CandidateReport& TuningReport::candidate(const std::string& name) const {
  for (const CandidateReport& report : candidates) {
    if (report.config.name == name) {
      return report;
    }
  }
  throw std::out_of_range{"TuningReport: no candidate named '" + name + "'"};
}

std::string TuningReport::to_json() const {
  std::ostringstream os;
  os << "{\"seed\":" << seed << ",\"shards\":" << shards
     << ",\"cadence_seconds\":" << json_number(cadence_seconds)
     << ",\"adaptive_cross_percent\":" << json_number(adaptive_cross_percent)
     << ",\"selected\":"
     << (selected_index.has_value()
             ? std::to_string(*selected_index)
             : std::string{"null"})
     << ",\"candidates\":[";
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const CandidateReport& report = candidates[i];
    os << (i == 0 ? "" : ",") << "{";
    append_config(os, report.config);
    os << ",\"within_budgets\":" << (report.within_budgets ? 1 : 0)
       << ",\"on_pareto_front\":" << (report.on_pareto_front ? 1 : 0)
       << ",\"selected\":" << (report.selected ? 1 : 0) << ",";
    append_metrics(os, report.metrics);
    os << "}";
  }
  os << "]}";
  return os.str();
}

ParameterTuner::ParameterTuner(TunerSpec spec)
    : spec_{std::move(spec)}, evaluator_{spec_} {}

void ParameterTuner::train() {
  if (trained_) {
    return;
  }
  evaluator_.train();
  candidates_ = spec_.space.enumerate(evaluator_.profile_trace());
  util::require(!candidates_.empty(),
                "ParameterTuner: the candidate space is empty");
  trained_ = true;
}

const std::vector<TunedConfiguration>& ParameterTuner::candidates() const {
  util::require(trained_, "ParameterTuner: call train() first");
  return candidates_;
}

std::size_t ParameterTuner::cell_count() {
  train();
  return grid().cell_count();
}

void ParameterTuner::set_telemetry(obs::TelemetryConfig config) {
  GridEngine::set_telemetry(config);
  evaluator_.set_profiler(config.profiling ? &telemetry_.profiler : nullptr);
}

CandidateShardOutcome ParameterTuner::run_cell(
    std::size_t cell_id, runtime::WorkerArena& /*arena*/,
    obs::WindowedRegistry* windows) const {
  const runtime::CellGrid g = grid();
  return evaluator_.evaluate_cell(candidates_[g.decompose(cell_id).defense],
                                  g, cell_id, windows,
                                  telemetry_.config.privacy,
                                  telemetry_.config.privacy_pairs);
}

// Publishes one (candidate, shard) cell into a private per-cell
// registry: the shard's pooled streaming stats, the arbitrated
// access-delay distribution as a histogram (shared bucket edges, so
// shard merges are bucket-wise sums), drop/session/flow counters, and
// one adaptive_* series set per epoch.
void ParameterTuner::publish_cell(obs::MetricsRegistry& registry,
                                  std::size_t cell_id,
                                  const CandidateShardOutcome& outcome) const {
  const runtime::CellGrid::Cell cell = grid().decompose(cell_id);
  const obs::LabelSet labels{{"candidate", candidates_[cell.defense].name},
                             {"shard", std::to_string(cell.shard)}};
  registry.counter("tuner_sessions_total", labels).add(outcome.sessions);
  registry.counter("tuner_flows_total", labels).add(outcome.flows);
  registry.counter("tuner_frames_dropped_total", labels)
      .add(outcome.frames_dropped);
  obs::publish(registry, outcome.streaming, labels);
  obs::Histogram& access = registry.histogram(
      "tuner_access_delay_us", obs::latency_us_buckets(), labels);
  for (const double sample : outcome.access_delay_us) {
    access.observe(sample);
  }
  for (std::size_t e = 0; e < outcome.epochs.size(); ++e) {
    obs::LabelSet epoch_labels = labels;
    epoch_labels.set("epoch", std::to_string(e));
    obs::publish(registry, outcome.epochs[e], epoch_labels);
  }
}

TuningReport ParameterTuner::aggregate(
    std::vector<CandidateShardOutcome> outcomes) const {
  TuningReport report;
  report.seed = spec_.seed;
  report.shards = spec_.shards;
  report.cadence_seconds = spec_.attacker.cadence.to_seconds();
  report.adaptive_cross_percent = spec_.objective.adaptive_cross_percent;

  std::vector<CandidateMetrics> metrics;
  metrics.reserve(candidates_.size());
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    const std::span<const CandidateShardOutcome> shards{
        outcomes.data() + c * spec_.shards, spec_.shards};
    metrics.push_back(CandidateEvaluator::merge(shards, spec_.objective));
    CandidateReport entry;
    entry.config = candidates_[c];
    entry.metrics = metrics.back();
    entry.within_budgets =
        within_budgets(metrics.back(), spec_.objective.budgets);
    report.candidates.push_back(std::move(entry));
  }

  const SelectionOutcome selection = run_selection(metrics, spec_.objective);
  for (const std::size_t i : selection.front) {
    report.candidates[i].on_pareto_front = true;
  }
  report.selected_index = selection.selected;
  if (report.selected_index.has_value()) {
    report.candidates[*report.selected_index].selected = true;
  }
  return report;
}

}  // namespace reshape::core::tuning
