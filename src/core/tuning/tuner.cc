#include "core/tuning/tuner.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/stat_views.h"
#include "runtime/adaptive_campaign.h"
#include "sim/channel/arbitrated_cell.h"
#include "traffic/generator.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"

namespace reshape::core::tuning {

namespace {

using util::json_escape;
using util::json_number;

/// Nearest-rank percentile of an ascending-sorted sample vector.
double percentile(std::span<const double> sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[std::min(rank, sorted.size()) - 1];
}

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

runtime::Scenario default_arena() {
  return runtime::tuned_vs_table5(4, util::Duration::seconds(60.0));
}

online::StreamingConfig default_streaming() {
  online::StreamingConfig config;
  config.bitrate_mbps = 12.0;  // match the arena's contended-cell PHY rate
  return config;
}

CandidateMetrics merge_shards(std::span<const CandidateShardOutcome> shards,
                              const TuningObjective& objective) {
  CandidateMetrics metrics;

  // Merge the epoch curves across shards through the canonical
  // runtime::merge_curve (every field folded — the hand-rolled
  // confusion-only merge that used to live here dropped the window and
  // label tallies; the merged curve spans the longest shard), then read
  // the crossing off the merged curve: the first epoch where the adaptive
  // adversary's accuracy reaches X%.
  std::vector<runtime::EpochAggregate> merged;
  for (const CandidateShardOutcome& shard : shards) {
    runtime::merge_curve(merged, shard.epochs);
  }
  const std::size_t epochs_total = merged.size();
  metrics.epochs_total = epochs_total;
  metrics.epochs_survived = epochs_total;
  for (std::size_t e = 0; e < epochs_total; ++e) {
    if (merged[e].accuracy_percent() >= objective.adaptive_cross_percent) {
      metrics.epochs_survived = e;
      metrics.crossed = true;
      break;
    }
  }
  if (epochs_total > 0) {
    metrics.final_adaptive_accuracy = merged.back().accuracy_percent();
    metrics.final_static_accuracy = merged.back().static_accuracy_percent();
  }

  // Each shard's samples are sorted, so merging them pairwise gives the
  // pooled multiset in order: the nearest-rank percentiles below read
  // exactly what a concatenate-and-sort would.
  online::StreamingStats pooled;
  std::vector<double> samples;
  std::vector<double> next;
  for (const CandidateShardOutcome& shard : shards) {
    pooled.merge(shard.streaming);
    next.resize(samples.size() + shard.access_delay_us.size());
    std::merge(samples.begin(), samples.end(), shard.access_delay_us.begin(),
               shard.access_delay_us.end(), next.begin());
    samples.swap(next);
    metrics.frames_dropped += shard.frames_dropped;
  }
  metrics.deadline_miss_rate = pooled.deadline_miss_rate();
  metrics.mean_queueing_delay_us = pooled.mean_queueing_delay_us();
  metrics.access_delay_p50_us = percentile(samples, 0.50);
  metrics.access_delay_p90_us = percentile(samples, 0.90);
  metrics.access_delay_p99_us = percentile(samples, 0.99);
  // Dropped frames never produced a delay sample; account them as their
  // own rate so an overloaded cell cannot hide behind good percentiles.
  const double offered =
      static_cast<double>(samples.size() + metrics.frames_dropped);
  metrics.frame_drop_rate =
      offered == 0.0 ? 0.0
                     : static_cast<double>(metrics.frames_dropped) / offered;
  metrics.overhead_percent = pooled.overhead_percent();
  return metrics;
}

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

ParameterTuner::ParameterTuner(TunerSpec spec) : spec_{std::move(spec)} {
  util::require(spec_.shards > 0, "ParameterTuner: need >= 1 shard");
  util::require(spec_.streaming.bitrate_mbps > 0.0,
                "ParameterTuner: streaming bitrate must be > 0");
}

void ParameterTuner::train() {
  if (!trained_) {
    attacker_.emplace(
        spec_.attacker,
        runtime::bootstrap_profile(spec_.bootstrap, spec_.attacker));
    // The defender's own measurement pass: one clean profile session per
    // app, pooled — what equal-mass candidate partitions are derived
    // from.
    std::vector<traffic::Trace> profiles;
    profiles.reserve(traffic::kAppCount);
    for (const traffic::AppType app : traffic::kAllApps) {
      profiles.push_back(traffic::generate_trace(
          app, util::Duration::seconds(30.0),
          util::splitmix64(spec_.bootstrap.seed ^
                           (0x7C7E9601ULL + traffic::app_index(app)))));
    }
    candidates_ = spec_.space.enumerate(
        traffic::Trace::merge(profiles, traffic::AppType::kBrowsing));
    util::require(!candidates_.empty(),
                  "ParameterTuner: the candidate space is empty");
    trained_ = true;
  }
  if (telemetry_.config.privacy && !probe_) {
    // The label-free attacker proxy shares the adversary's bootstrap
    // rows.
    probe_.emplace(attacker_->base(), spec_.attacker.attack);
  }
}

const std::vector<TunedConfiguration>& ParameterTuner::candidates() const {
  util::require(trained_, "ParameterTuner: call train() first");
  return candidates_;
}

std::size_t ParameterTuner::cell_count() {
  train();
  return grid().cell_count();
}

TuningRangeOutcome ParameterTuner::run_range(std::size_t begin,
                                             std::size_t end,
                                             std::size_t threads) {
  runtime::WorkloadMemo<std::vector<traffic::Trace>> memo{spec_.shards};
  workloads_ = &memo;
  struct Detach {
    runtime::WorkloadMemo<std::vector<traffic::Trace>>*& memo;
    ~Detach() { memo = nullptr; }
  } detach{workloads_};
  return GridEngine::run_range(begin, end, threads);
}

CandidateShardOutcome ParameterTuner::run_cell(
    std::size_t cell_id, runtime::WorkerArena& arena,
    obs::WindowedRegistry* windows) const {
  const runtime::CellGrid g = grid();
  const runtime::CellGrid::Cell cell = g.decompose(cell_id);
  const TunedConfiguration& candidate = candidates_[cell.defense];
  candidate.validate();
  const runtime::CellStreams streams =
      runtime::cell_streams(spec_.seed, g, cell_id);
  const obs::LabelSet labels = cell_labels(cell);
  // One lap per phase; host timings only, the simulation never reads
  // them.
  obs::CellLaps* laps = &arena.eval.laps;

  // Candidates take the defense axis, so the workload slot is the shard.
  // Only the cell that fills the slot laps its generation.
  const std::vector<traffic::Trace>& sessions =
      workloads_->get(g.workload_id(cell), [&] {
        const obs::PhaseLap lap{laps, obs::Phase::kGeneration};
        util::Rng stream = streams.workload;
        return spec_.scenario.generate(stream);
      });

  CandidateShardOutcome outcome;
  outcome.sessions = sessions.size();

  // Live pass: one streaming pipeline per station. The recorded streams
  // are the adversary's flow-isolation view (batch golden parity); the
  // stats and release times are the live cost the batch path never sees.
  // Each released frame becomes a release of the station's transmitter in
  // the measurement cell.
  online::StreamingConfig config = spec_.streaming;
  config.record_streams = true;
  sim::channel::ArbitratedCell air{
      sim::channel::DcfParams{.bitrate_mbps = config.bitrate_mbps},
      streams.channel.fork(2)};
  std::size_t records = 0;
  for (const traffic::Trace& session : sessions) {
    records += session.size();
  }
  air.reserve(records);  // one release per record

  std::vector<eval::DefendedSession> defended;
  defended.reserve(sessions.size());
  {
    const obs::PhaseLap lap{laps, obs::Phase::kStreaming};
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const auto reshaper = candidate.make_reshaper(config);
      reshaper->set_windowed(windows, labels);  // nullptr: off
      for (const traffic::PacketRecord& record : sessions[s].records()) {
        const online::ShapedPacket shaped = reshaper->push(record);
        air.release(s, shaped.tx_start, shaped.record.size_bytes);
      }
      eval::DefendedSession session;
      session.app = sessions[s].app();
      session.original_bytes = reshaper->stats().original_bytes;
      session.added_bytes = reshaper->stats().added_bytes;
      for (const traffic::Trace& stream : reshaper->streams()) {
        if (!stream.empty()) {
          session.flows.push_back(stream);
        }
      }
      outcome.streaming.merge(reshaper->stats());
      defended.push_back(std::move(session));
    }
  }

  // Observed pass: every released frame contends for one arbitrated DCF
  // cell; the per-frame enqueue -> on-air delay is the access-delay
  // sample distribution the latency budgets are checked against. Delays
  // are whole microseconds, so an exact integer sort orders them; every
  // release without one was dropped.
  {
    const obs::PhaseLap lap{laps, obs::Phase::kArbitration};
    air.set_windowed(windows, labels);
    std::vector<std::uint64_t> delays_us;
    delays_us.reserve(air.releases());
    air.run([&delays_us](std::size_t, util::TimePoint, std::uint32_t,
                         util::Duration access_delay) {
      delays_us.push_back(
          static_cast<std::uint64_t>(access_delay.count_us()));
    });
    outcome.frames_dropped = air.releases() - delays_us.size();
    util::radix_sort(delays_us);
    outcome.access_delay_us.assign(delays_us.begin(), delays_us.end());
  }

  // Adaptive pass: the engine's one attacker scores this cell's session
  // exactly as AdaptiveCampaignEngine scores its cells, on flows tagged by
  // the shared backend (which consumes the defended flow traces); the
  // privacy audit sees the same flows first.
  const obs::PhaseLap lap{laps, obs::Phase::kAdaptive};
  const std::vector<attack::adaptive::ObservedFlow> flows =
      runtime::rssi_tagged_flows(defended, streams.rssi,
                                 runtime::RssiModel{});
  outcome.flows = flows.size();
  audit(flows, windows, labels);
  outcome.epochs = attacker_->run_session(flows);
  if (windows != nullptr) {
    for (const attack::adaptive::EpochScore& epoch : outcome.epochs) {
      publish_windowed(*windows, epoch, labels);
    }
  }
  return outcome;
}

// Publishes one (candidate, shard) cell into a private per-cell
// registry: the shard's pooled streaming stats, the arbitrated
// access-delay distribution as a histogram (shared bucket edges, so
// shard merges are bucket-wise sums), drop/session/flow counters, and
// one adaptive_* series set per epoch.
void ParameterTuner::publish_cell(obs::MetricsRegistry& registry,
                                  std::size_t cell_id,
                                  const CandidateShardOutcome& outcome) const {
  const obs::LabelSet labels = cell_labels(grid().decompose(cell_id));
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
  obs::publish(registry, outcome.epochs, labels);
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
    metrics.push_back(merge_shards(shards, spec_.objective));
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
