// Publisher views: the existing per-layer stats structs
// (core::online::StreamingStats, sim::channel::ChannelStats,
// attack::adaptive::EpochScore) exported into a MetricsRegistry.
//
// These are free functions rather than methods so the core/sim/attack
// layers stay ignorant of obs:: (no include cycles, telemetry remains an
// optional consumer). The mapping is deliberately lossless for everything
// mergeable: sums and counts land in counters, maxima in gauges — exactly
// the registry's canonical merge rule — so
//
//   publish(r, a); publish(r, b)        ==  StreamingStats{a}.merge(b)
//   snapshot(r1).merge(snapshot(r2))        published once
//
// which tests/obs_test.cc asserts for both stats structs. That equivalence
// is what lets sharded campaign workers publish per-cell and the engine
// fold snapshots without a second, divergent aggregation path.
#pragma once

#include <vector>

#include "obs/metrics.h"

namespace reshape::core::online {
struct StreamingStats;
}
namespace reshape::sim::channel {
struct ChannelStats;
}
namespace reshape::attack::adaptive {
struct EpochScore;
}

namespace reshape::obs {

/// streaming_* series: packets/bytes/misses/delay/airtime counters plus
/// max-delay and max-queue-depth gauges.
void publish(MetricsRegistry& registry,
             const core::online::StreamingStats& stats,
             const LabelSet& labels = {});

/// channel_* series: frames/drops/collisions/retries/delay/airtime
/// counters plus max-delay and max-queue-depth gauges.
void publish(MetricsRegistry& registry,
             const sim::channel::ChannelStats& stats,
             const LabelSet& labels = {});

/// adaptive_* series: windows, self-label and confusion tallies as
/// counters (accuracy is a ratio of counters, recomputed after merge);
/// training-rows high-water mark as a gauge.
void publish(MetricsRegistry& registry,
             const attack::adaptive::EpochScore& score,
             const LabelSet& labels = {});

/// An epoch curve: one adaptive_* series set per epoch, each under
/// `labels` plus an "epoch" label carrying its index, so the curve
/// survives the shard merge.
void publish(MetricsRegistry& registry,
             const std::vector<attack::adaptive::EpochScore>& curve,
             const LabelSet& labels);

}  // namespace reshape::obs
