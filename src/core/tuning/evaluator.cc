#include "core/tuning/evaluator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "runtime/adaptive_campaign.h"
#include "sim/channel/channel_arbiter.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "traffic/generator.h"
#include "util/check.h"
#include "util/rng.h"

namespace reshape::core::tuning {

namespace {

constexpr int kChannel = 1;

/// Inert transmitter identity for the access-delay measurement cell.
struct StationIdentity final : sim::RadioListener {
  void on_frame(const mac::Frame&, double) override {}
};

/// Enqueues released frames on the measurement cell: one typed event
/// (station, record index) per frame instead of one scheduled closure.
class ReleaseEvents final : public sim::EventHandler {
 public:
  ReleaseEvents(
      sim::channel::ChannelArbiter& arbiter,
      const std::vector<std::vector<traffic::PacketRecord>>& released)
      : arbiter_{arbiter}, released_{released}, stations_(released.size()) {}
  ReleaseEvents(const ReleaseEvents&) = delete;  // the simulator holds it
  ReleaseEvents& operator=(const ReleaseEvents&) = delete;

  void on_event(std::uint64_t station, std::uint64_t index) override {
    mac::Frame frame;
    frame.size_bytes = released_[station][index].size_bytes;
    frame.channel = kChannel;
    arbiter_.enqueue(std::move(frame),
                     sim::Position{static_cast<double>(station), 0.0},
                     &stations_[station]);
  }

 private:
  sim::channel::ChannelArbiter& arbiter_;
  const std::vector<std::vector<traffic::PacketRecord>>& released_;
  std::vector<StationIdentity> stations_;  // sized once: stable addresses
};

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
    bool audit_privacy, bool audit_pairs) const {
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
  online::StreamingConfig config = spec_.streaming;
  config.record_streams = true;

  // One phase-timer lap per pass (emplace ends the previous lap); host
  // timings only, the simulation below never reads the profiler.
  std::optional<obs::PhaseProfiler::Scope> phase;
  phase.emplace(profiler_, "streaming");

  std::vector<eval::DefendedSession> defended;
  defended.reserve(sessions.size());
  std::vector<std::vector<traffic::PacketRecord>> released(sessions.size());
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const auto reshaper = candidate.make_reshaper(config);
    if (windows != nullptr) {
      reshaper->set_windowed(windows, window_labels);
    }
    released[s].reserve(sessions[s].size());
    for (const traffic::PacketRecord& record : sessions[s].records()) {
      const online::ShapedPacket shaped = reshaper->push(record);
      traffic::PacketRecord on_air = shaped.record;
      on_air.time = shaped.tx_start;
      released[s].push_back(on_air);
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

  // Observed pass: every released frame contends for one arbitrated DCF
  // cell; the per-frame enqueue -> on-air delay is the access-delay
  // sample distribution the latency budgets are checked against.
  phase.emplace(profiler_, "arbitration");
  {
    sim::Simulator simulator;
    sim::PathLossModel quiet;
    quiet.shadowing_sigma_db = 0.0;
    sim::Medium medium{quiet, streams.channel.fork(1)};
    sim::channel::DcfParams params;
    params.bitrate_mbps = spec_.arbitration_bitrate_mbps;
    sim::channel::ChannelArbiter arbiter{simulator, medium, kChannel, params,
                                         streams.channel.fork(2)};
    if (windows != nullptr) {
      arbiter.set_windowed(windows, window_labels);
    }
    arbiter.set_on_air_hook([&outcome](const mac::Frame&,
                                       util::Duration access_delay,
                                       const sim::RadioListener*) {
      outcome.access_delay_us.push_back(
          static_cast<double>(access_delay.count_us()));
    });
    arbiter.set_drop_hook([&outcome](const mac::Frame&,
                                     const sim::RadioListener*) {
      ++outcome.frames_dropped;
    });

    ReleaseEvents release{arbiter, released};
    for (std::size_t s = 0; s < released.size(); ++s) {
      for (std::size_t i = 0; i < released[s].size(); ++i) {
        simulator.schedule_event(released[s][i].time, release, s, i);
      }
    }
    simulator.run();
  }
  std::sort(outcome.access_delay_us.begin(), outcome.access_delay_us.end());

  // Adaptive pass: identical scoring to AdaptiveCampaignEngine, via the
  // shared backend (consumes the defended flow traces).
  phase.emplace(profiler_, "adaptive");
  const std::vector<attack::adaptive::ObservedFlow> flows =
      runtime::rssi_tagged_flows(defended, streams.rssi, spec_.rssi);
  outcome.flows = flows.size();
  if (windows != nullptr && audit_privacy) {
    attack::audit::AuditConfig audit;
    audit.per_pair_series = audit_pairs;
    runtime::audit_flows(flows, &probe_, *windows, window_labels, audit);
  }
  outcome.epochs = runtime::run_adaptive_flows(base_, spec_.attacker,
                                               spec_.make_classifier, flows);
  if (windows != nullptr) {
    for (const attack::adaptive::EpochScore& epoch : outcome.epochs) {
      publish_windowed(*windows, epoch, window_labels);
    }
  }
  phase.reset();
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
