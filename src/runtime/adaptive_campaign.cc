#include "runtime/adaptive_campaign.h"

#include <sstream>
#include <utility>

#include "obs/stat_views.h"
#include "runtime/evaluation_backend.h"
#include "util/check.h"
#include "util/json.h"

namespace reshape::runtime {

namespace {

using detail::cell_labels;
using util::json_escape;
using util::json_number;

constexpr int kClasses = static_cast<int>(traffic::kAppCount);

/// The fields a cell's epoch score and a shard-merged epoch share.
template <typename Epoch>
void append_epoch_fields(std::ostringstream& os, const Epoch& epoch) {
  os << "\"windows\":" << epoch.windows
     << ",\"accuracy\":" << json_number(epoch.accuracy_percent())
     << ",\"static_accuracy\":"
     << json_number(epoch.static_accuracy_percent())
     << ",\"labels_correct\":" << epoch.labels_correct
     << ",\"labels_assigned\":" << epoch.labels_assigned;
}

}  // namespace

EpochAggregate::EpochAggregate()
    : confusion{kClasses}, static_confusion{kClasses} {}

void EpochAggregate::merge(const attack::adaptive::EpochScore& epoch) {
  windows += epoch.windows;
  confusion.merge(epoch.confusion);
  static_confusion.merge(epoch.static_confusion);
  labels_correct += epoch.labels_correct;
  labels_assigned += epoch.labels_assigned;
}

double EpochAggregate::accuracy_percent() const {
  return 100.0 * confusion.mean_accuracy();
}

double EpochAggregate::static_accuracy_percent() const {
  return 100.0 * static_confusion.mean_accuracy();
}

const AdaptiveAggregate& AdaptiveCampaignReport::aggregate(
    std::string_view defense, std::string_view scenario) const {
  return detail::find_aggregate(aggregates, defense, scenario,
                                "AdaptiveCampaignReport");
}

std::string AdaptiveCampaignReport::to_json() const {
  std::ostringstream os;
  os << "{\"seed\":" << seed << ",\"shards\":" << shards << ",\"cells\":[";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const AdaptiveCellResult& cell = cells[c];
    os << (c == 0 ? "" : ",") << "{\"defense\":" << cell.defense_index
       << ",\"scenario\":" << cell.scenario_index
       << ",\"shard\":" << cell.shard
       << ",\"sessions\":" << cell.session_count
       << ",\"flows\":" << cell.flow_count << ",\"epochs\":[";
    for (std::size_t e = 0; e < cell.epochs.size(); ++e) {
      const attack::adaptive::EpochScore& epoch = cell.epochs[e];
      os << (e == 0 ? "" : ",") << "{";
      append_epoch_fields(os, epoch);
      os << ",\"training_rows\":" << epoch.training_rows
         << ",\"refitted\":" << (epoch.refitted ? 1 : 0) << "}";
    }
    os << "]}";
  }
  os << "],\"aggregates\":[";
  for (std::size_t a = 0; a < aggregates.size(); ++a) {
    const AdaptiveAggregate& agg = aggregates[a];
    os << (a == 0 ? "" : ",") << "{\"defense\":\"" << json_escape(agg.defense)
       << "\",\"scenario\":\"" << json_escape(agg.scenario)
       << "\",\"shards\":" << agg.shards << ",\"epochs\":[";
    for (std::size_t e = 0; e < agg.epochs.size(); ++e) {
      const EpochAggregate& epoch = agg.epochs[e];
      os << (e == 0 ? "" : ",") << "{";
      append_epoch_fields(os, epoch);
      os << "}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

AdaptiveCampaignEngine::AdaptiveCampaignEngine(AdaptiveCampaignSpec spec)
    : spec_{std::move(spec)} {
  detail::require_defense_grid(spec_, "AdaptiveCampaignEngine");
}

void AdaptiveCampaignEngine::train() {
  if (!trained_) {
    base_ = bootstrap_profile(spec_.bootstrap, spec_.attacker);
    trained_ = true;
  }
  if (telemetry_.config.privacy && !probe_) {
    // The attacker proxy shares the adversary's own bootstrap rows —
    // built once, read-only across cells and runs.
    probe_.emplace(base_, spec_.attacker.attack);
  }
}

AdaptiveCellResult AdaptiveCampaignEngine::run_cell(
    std::size_t cell_id, WorkerArena& /*arena*/,
    obs::WindowedRegistry* windows) const {
  const CellGrid g = grid();
  const CellGrid::Cell cell = g.decompose(cell_id);
  CellStreams streams = cell_streams(spec_.seed, g, cell_id);

  AdaptiveCellResult result;
  result.defense_index = cell.defense;
  result.scenario_index = cell.scenario;
  result.shard = cell.shard;

  const Scenario& scenario = spec_.scenarios[cell.scenario];
  const DefenseSpec& defense = spec_.defenses[cell.defense];
  const std::vector<traffic::Trace> sessions =
      scenario.generate(streams.workload);
  result.session_count = sessions.size();

  std::vector<eval::DefendedSession> defended =
      eval::apply_defense(defense.factory, sessions, streams.defense_seed);
  const std::vector<attack::adaptive::ObservedFlow> flows =
      rssi_tagged_flows(defended, streams.rssi, RssiModel{});
  result.flow_count = flows.size();
  if (windows != nullptr && telemetry_.config.privacy) {
    // The label-free audit sees exactly the flows the oracle-labeled
    // adversary is about to score — the pairing the proxy-vs-oracle
    // correlation tests rely on.
    attack::audit::AuditConfig audit;
    audit.per_pair_series = telemetry_.config.privacy_pairs;
    audit_flows(flows, probe_ ? &*probe_ : nullptr, *windows,
                cell_labels(spec_, result), audit);
  }
  result.epochs =
      run_adaptive_flows(base_, spec_.attacker, spec_.make_classifier, flows);
  if (windows != nullptr && telemetry_.config.windowed) {
    // Epoch scores observed at their sim-time starts: with the window set
    // to the attacker cadence, windows align 1:1 with epochs — the
    // accuracy-over-time signal the drift detectors watch.
    const obs::LabelSet labels = cell_labels(spec_, result);
    for (const attack::adaptive::EpochScore& epoch : result.epochs) {
      publish_windowed(*windows, epoch, labels);
    }
  }
  return result;
}

// Publishes one adaptive cell into a private per-cell registry: session
// and flow counters plus one adaptive_* epoch series set per epoch
// (labels carry the epoch index — the curve survives the shard merge).
void AdaptiveCampaignEngine::publish_cell(
    obs::MetricsRegistry& registry, std::size_t /*cell_id*/,
    const AdaptiveCellResult& cell) const {
  const obs::LabelSet labels = cell_labels(spec_, cell);
  registry.counter("adaptive_sessions_total", labels).add(cell.session_count);
  registry.counter("adaptive_flows_total", labels).add(cell.flow_count);
  for (std::size_t e = 0; e < cell.epochs.size(); ++e) {
    obs::LabelSet epoch_labels = labels;
    epoch_labels.set("epoch", std::to_string(e));
    obs::publish(registry, cell.epochs[e], epoch_labels);
  }
}

AdaptiveCampaignReport AdaptiveCampaignEngine::aggregate(
    std::vector<AdaptiveCellResult> cells) const {
  AdaptiveCampaignReport report;
  report.seed = spec_.seed;
  report.shards = spec_.shards;
  report.cells = std::move(cells);

  // Merge shards per (defense, scenario, epoch) in grid order; epoch
  // counts can differ across shards (sessions end at different instants),
  // so the merged curve spans the longest shard.
  for (std::size_t d = 0; d < spec_.defenses.size(); ++d) {
    for (std::size_t s = 0; s < spec_.scenarios.size(); ++s) {
      AdaptiveAggregate agg;
      agg.defense = spec_.defenses[d].name;
      agg.scenario = spec_.scenarios[s].name();
      agg.shards = spec_.shards;
      for (std::size_t shard = 0; shard < spec_.shards; ++shard) {
        const std::size_t cell_id =
            (d * spec_.scenarios.size() + s) * spec_.shards + shard;
        const AdaptiveCellResult& cell = report.cells[cell_id];
        if (cell.epochs.size() > agg.epochs.size()) {
          agg.epochs.resize(cell.epochs.size());
        }
        for (std::size_t e = 0; e < cell.epochs.size(); ++e) {
          agg.epochs[e].merge(cell.epochs[e]);
        }
      }
      report.aggregates.push_back(std::move(agg));
    }
  }
  return report;
}

}  // namespace reshape::runtime
