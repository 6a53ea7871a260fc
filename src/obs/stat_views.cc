#include "obs/stat_views.h"

#include "attack/adaptive/adaptive_attacker.h"
#include "core/online/streaming_reshaper.h"
#include "sim/channel/channel_stats.h"

namespace reshape::obs {
namespace {

std::uint64_t diagonal(const ml::ConfusionMatrix& confusion) {
  std::uint64_t correct = 0;
  for (int cls = 0; cls < confusion.num_classes(); ++cls) {
    correct += confusion.count(cls, cls);
  }
  return correct;
}

}  // namespace

void publish(MetricsRegistry& registry,
             const core::online::StreamingStats& stats,
             const LabelSet& labels) {
  registry.counter("streaming_packets_total", labels).add(stats.packets);
  registry.counter("streaming_original_bytes_total", labels)
      .add(stats.original_bytes);
  registry.counter("streaming_added_bytes_total", labels)
      .add(stats.added_bytes);
  registry.counter("streaming_deadline_misses_total", labels)
      .add(stats.deadline_misses);
  registry.counter("streaming_queueing_delay_us_total", labels)
      .add(static_cast<std::uint64_t>(
          stats.total_queueing_delay.count_us()));
  registry.counter("streaming_airtime_us_total", labels)
      .add(static_cast<std::uint64_t>(stats.airtime_busy.count_us()));
  registry.gauge("streaming_queueing_delay_us_max", labels)
      .max_of(static_cast<double>(stats.max_queueing_delay.count_us()));
  registry.gauge("streaming_queue_depth_max", labels)
      .max_of(static_cast<double>(stats.max_queue_depth));
}

void publish(MetricsRegistry& registry,
             const sim::channel::ChannelStats& stats,
             const LabelSet& labels) {
  registry.counter("channel_frames_sent_total", labels)
      .add(stats.frames_sent);
  registry.counter("channel_frames_dropped_total", labels)
      .add(stats.frames_dropped);
  registry.counter("channel_collisions_total", labels).add(stats.collisions);
  registry.counter("channel_retries_total", labels).add(stats.retries);
  registry.counter("channel_access_delay_us_total", labels)
      .add(static_cast<std::uint64_t>(stats.total_access_delay.count_us()));
  registry.counter("channel_airtime_us_total", labels)
      .add(static_cast<std::uint64_t>(stats.airtime.count_us()));
  registry.gauge("channel_access_delay_us_max", labels)
      .max_of(static_cast<double>(stats.max_access_delay.count_us()));
  registry.gauge("channel_queue_depth_max", labels)
      .max_of(static_cast<double>(stats.max_queue_depth));
}

void publish(MetricsRegistry& registry,
             const attack::adaptive::EpochScore& score,
             const LabelSet& labels) {
  registry.counter("adaptive_windows_total", labels).add(score.windows);
  registry.counter("adaptive_labels_assigned_total", labels)
      .add(score.labels_assigned);
  registry.counter("adaptive_labels_correct_total", labels)
      .add(score.labels_correct);
  registry.counter("adaptive_predictions_total", labels)
      .add(score.confusion.total());
  registry.counter("adaptive_predictions_correct_total", labels)
      .add(diagonal(score.confusion));
  registry.counter("adaptive_static_predictions_total", labels)
      .add(score.static_confusion.total());
  registry.counter("adaptive_static_predictions_correct_total", labels)
      .add(diagonal(score.static_confusion));
  registry.counter("adaptive_refits_total", labels)
      .add(score.refitted ? 1 : 0);
  registry.gauge("adaptive_training_rows_max", labels)
      .max_of(static_cast<double>(score.training_rows));
}

void publish(MetricsRegistry& registry,
             const std::vector<attack::adaptive::EpochScore>& curve,
             const LabelSet& labels) {
  for (std::size_t e = 0; e < curve.size(); ++e) {
    LabelSet epoch_labels = labels;
    epoch_labels.set("epoch", std::to_string(e));
    publish(registry, curve[e], epoch_labels);
  }
}

}  // namespace reshape::obs
