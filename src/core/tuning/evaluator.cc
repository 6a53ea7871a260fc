#include "core/tuning/evaluator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "runtime/adaptive_campaign.h"
#include "sim/channel/arbitrated_cell.h"
#include "traffic/generator.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"

namespace reshape::core::tuning {

namespace {

/// Nearest-rank percentile of an ascending-sorted sample vector.
double percentile(std::span<const double> sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[std::min(rank, sorted.size()) - 1];
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

CandidateEvaluator::CandidateEvaluator(const TunerSpec& spec) : spec_{spec} {
  util::require(spec_.shards > 0, "CandidateEvaluator: need >= 1 shard");
  util::require(spec_.arbitration_bitrate_mbps > 0.0,
                "CandidateEvaluator: arbitration bitrate must be > 0");
}

void CandidateEvaluator::train() {
  if (trained_) {
    return;
  }
  base_ = runtime::bootstrap_profile(spec_.bootstrap, spec_.attacker);
  // The label-free attacker proxy shares the adversary's bootstrap rows.
  probe_ = attack::audit::NearestCentroidProbe{base_, spec_.attacker.attack};

  // The defender's own measurement pass: one clean profile session per
  // app, pooled — what equal-mass candidate partitions are derived from.
  std::vector<traffic::Trace> profiles;
  profiles.reserve(traffic::kAppCount);
  for (const traffic::AppType app : traffic::kAllApps) {
    profiles.push_back(traffic::generate_trace(
        app, util::Duration::seconds(30.0),
        util::splitmix64(spec_.bootstrap.seed ^
                         (0x7C7E9601ULL + traffic::app_index(app)))));
  }
  profile_ = traffic::Trace::merge(profiles, traffic::AppType::kBrowsing);
  trained_ = true;
}

const traffic::Trace& CandidateEvaluator::profile_trace() const {
  util::require(trained_, "CandidateEvaluator: call train() first");
  return profile_;
}

CandidateShardOutcome CandidateEvaluator::evaluate_cell(
    const TunedConfiguration& candidate,
    std::span<const traffic::Trace> sessions, const runtime::CellGrid& grid,
    std::size_t cell_id, obs::WindowedRegistry* windows,
    bool audit_privacy, bool audit_pairs, obs::CellLaps* laps) const {
  util::require(trained_, "CandidateEvaluator: call train() first");
  candidate.validate();
  const runtime::CellStreams streams =
      runtime::cell_streams(spec_.seed, grid, cell_id);
  const obs::LabelSet window_labels{
      {"candidate", candidate.name},
      {"shard", std::to_string(grid.decompose(cell_id).shard)}};

  CandidateShardOutcome outcome;
  outcome.sessions = sessions.size();

  // Live pass: one streaming pipeline per station. The recorded streams
  // are the adversary's flow-isolation view (batch golden parity); the
  // stats and release times are the live cost the batch path never sees.
  // Each released frame becomes a release of the station's transmitter in
  // the measurement cell.
  online::StreamingConfig config = spec_.streaming;
  config.record_streams = true;
  sim::channel::ArbitratedCell cell{
      sim::channel::DcfParams{.bitrate_mbps = spec_.arbitration_bitrate_mbps},
      streams.channel.fork(2)};
  std::size_t records = 0;
  for (const traffic::Trace& session : sessions) {
    records += session.size();
  }
  cell.reserve(records);  // one release per record

  // One lap per pass; host timings only, the simulation below never
  // reads them.
  std::vector<eval::DefendedSession> defended;
  defended.reserve(sessions.size());
  {
    const obs::PhaseLap lap{laps, obs::Phase::kStreaming};
    for (std::size_t s = 0; s < sessions.size(); ++s) {
      const auto reshaper = candidate.make_reshaper(config);
      reshaper->set_windowed(windows, window_labels);  // nullptr: off
      for (const traffic::PacketRecord& record : sessions[s].records()) {
        const online::ShapedPacket shaped = reshaper->push(record);
        cell.release(s, shaped.tx_start, shaped.record.size_bytes);
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
    cell.set_windowed(windows, window_labels);
    std::vector<std::uint64_t> delays_us;
    delays_us.reserve(cell.releases());
    cell.run([&delays_us](std::size_t, util::TimePoint, std::uint32_t,
                          util::Duration access_delay) {
      delays_us.push_back(
          static_cast<std::uint64_t>(access_delay.count_us()));
    });
    outcome.frames_dropped = cell.releases() - delays_us.size();
    util::radix_sort(delays_us);
    outcome.access_delay_us.assign(delays_us.begin(), delays_us.end());
  }

  // Adaptive pass: identical scoring to AdaptiveCampaignEngine, via the
  // shared backend (consumes the defended flow traces).
  const obs::PhaseLap lap{laps, obs::Phase::kAdaptive};
  const std::vector<attack::adaptive::ObservedFlow> flows =
      runtime::rssi_tagged_flows(defended, streams.rssi,
                                 runtime::RssiModel{});
  outcome.flows = flows.size();
  if (windows != nullptr && audit_privacy) {
    runtime::audit_flows(flows, &probe_, *windows, window_labels,
                         audit_pairs);
  }
  outcome.epochs = runtime::run_adaptive_flows(base_, spec_.attacker,
                                               spec_.make_classifier, flows);
  if (windows != nullptr) {
    for (const attack::adaptive::EpochScore& epoch : outcome.epochs) {
      publish_windowed(*windows, epoch, window_labels);
    }
  }
  return outcome;
}

CandidateMetrics CandidateEvaluator::merge(
    std::span<const CandidateShardOutcome> shards,
    const TuningObjective& objective) {
  CandidateMetrics metrics;

  // Merge the epoch curves across shards through the canonical
  // runtime::EpochAggregate::merge (every field folded — the hand-rolled
  // confusion-only merge that used to live here dropped the window and
  // label tallies), then read the crossing off the merged curve: the
  // first epoch where the adaptive adversary's accuracy reaches X%.
  // Curves can differ in length (sessions end at different instants); the
  // merged curve spans the longest shard.
  std::size_t epochs_total = 0;
  for (const CandidateShardOutcome& shard : shards) {
    epochs_total = std::max(epochs_total, shard.epochs.size());
  }
  std::vector<runtime::EpochAggregate> merged(epochs_total);
  for (const CandidateShardOutcome& shard : shards) {
    for (std::size_t e = 0; e < shard.epochs.size(); ++e) {
      merged[e].merge(shard.epochs[e]);
    }
  }
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

}  // namespace reshape::core::tuning
