#include "core/online/streaming_reshaper.h"

#include <algorithm>
#include <utility>

#include "mac/frame.h"
#include "util/check.h"

namespace reshape::core::online {

StreamingConfig StreamingConfig::accounting_only() const {
  StreamingConfig config = *this;
  config.record_streams = false;
  return config;
}

double StreamingStats::mean_queueing_delay_us() const {
  if (packets == 0) {
    return 0.0;
  }
  return static_cast<double>(total_queueing_delay.count_us()) /
         static_cast<double>(packets);
}

double StreamingStats::overhead_percent() const {
  return byte_overhead_percent(added_bytes, original_bytes);
}

double StreamingStats::deadline_miss_rate() const {
  if (packets == 0) {
    return 0.0;
  }
  return static_cast<double>(deadline_misses) / static_cast<double>(packets);
}

void StreamingStats::merge(const StreamingStats& other) {
  packets += other.packets;
  original_bytes += other.original_bytes;
  added_bytes += other.added_bytes;
  deadline_misses += other.deadline_misses;
  total_queueing_delay = total_queueing_delay + other.total_queueing_delay;
  max_queueing_delay = std::max(max_queueing_delay, other.max_queueing_delay);
  airtime_busy = airtime_busy + other.airtime_busy;
  max_queue_depth = std::max(max_queue_depth, other.max_queue_depth);
}

StreamingReshaper::StreamingReshaper(ReshapingDefense defense,
                                     StreamingConfig config)
    : defense_{std::move(defense)}, config_{config} {
  util::require(config_.bitrate_mbps > 0.0,
                "StreamingReshaper: bitrate must be positive");
  util::require(config_.latency_budget >= util::Duration{},
                "StreamingReshaper: latency budget must be non-negative");
  inflight_.resize(stream_count());
  if (config_.record_streams) {
    streams_.resize(stream_count());
  }
}

ShapedPacket StreamingReshaper::push(const traffic::PacketRecord& arrival) {
  util::require(!saw_packet_ || arrival.time >= last_arrival_,
                "StreamingReshaper::push: arrivals must be time-ordered");
  last_arrival_ = arrival.time;
  saw_packet_ = true;

  ShapedPacket out;
  out.record = arrival;
  out.interface_index = defense_.dispatch(out.record);

  // Shared-radio timeline: one physical card serves every virtual
  // interface, FIFO in arrival order.
  out.tx_start = std::max(arrival.time, radio_free_);
  const util::Duration on_air =
      mac::airtime(out.record.size_bytes, config_.bitrate_mbps);
  radio_free_ = out.tx_start + on_air;
  out.queueing_delay = out.tx_start - arrival.time;
  out.deadline_miss = out.queueing_delay > config_.latency_budget;

  // Per-interface queue depth: packets of this interface still waiting or
  // on the air when this one arrived.
  std::deque<util::TimePoint>& queue = inflight_[out.interface_index];
  while (!queue.empty() && queue.front() <= arrival.time) {
    queue.pop_front();
  }
  queue.push_back(radio_free_);
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue.size());

  ++stats_.packets;
  stats_.original_bytes += arrival.size_bytes;
  stats_.added_bytes += out.record.size_bytes - arrival.size_bytes;
  stats_.deadline_misses += out.deadline_miss ? 1 : 0;
  stats_.total_queueing_delay += out.queueing_delay;
  stats_.max_queueing_delay =
      std::max(stats_.max_queueing_delay, out.queueing_delay);
  stats_.airtime_busy += on_air;

  if (windowed_.queueing_delay != nullptr) {
    // Windowed emission keys off the arrival instant — the sim-time axis
    // the drift detectors and SLO rules slice on.
    windowed_.queueing_delay->observe(
        arrival.time, static_cast<double>(out.queueing_delay.count_us()));
    windowed_.deadline_miss->observe(arrival.time,
                                     out.deadline_miss ? 1.0 : 0.0);
    windowed_.original_bytes->observe(arrival.time,
                                      static_cast<double>(arrival.size_bytes));
    windowed_.added_bytes->observe(
        arrival.time, static_cast<double>(out.record.size_bytes) -
                          static_cast<double>(arrival.size_bytes));
  }

  if (config_.record_streams) {
    streams_[out.interface_index].push_back(out.record);
  }
  if (trace_ != nullptr) {
    out.trace_id = trace_->next_frame_id();
    trace_->record(out.trace_id, obs::Hop::kEnqueue, arrival.time);
    trace_->record(out.trace_id, obs::Hop::kShape, arrival.time,
                   static_cast<std::int64_t>(out.record.size_bytes) -
                       static_cast<std::int64_t>(arrival.size_bytes));
    trace_->record(out.trace_id, obs::Hop::kSchedule, out.tx_start,
                   static_cast<std::int64_t>(out.interface_index));
  }
  return out;
}

void StreamingReshaper::set_windowed(obs::WindowedRegistry* registry,
                                     const obs::LabelSet& labels) {
  if (registry == nullptr) {
    windowed_ = WindowedEmit{};
    return;
  }
  windowed_.queueing_delay =
      &registry->series("streaming_queueing_delay_us", labels);
  windowed_.deadline_miss =
      &registry->series("streaming_deadline_miss", labels);
  windowed_.original_bytes =
      &registry->series("streaming_original_bytes", labels);
  windowed_.added_bytes = &registry->series("streaming_added_bytes", labels);
}

DefenseResult StreamingReshaper::result(traffic::AppType app) const {
  util::require(config_.record_streams,
                "StreamingReshaper::result: stream recording is off");
  DefenseResult out;
  out.streams = streams_;
  for (traffic::Trace& stream : out.streams) {
    stream.set_app(app);
  }
  out.original_bytes = stats_.original_bytes;
  out.added_bytes = stats_.added_bytes;
  return out;
}

void StreamingReshaper::reset() {
  defense_.reset();
  for (std::deque<util::TimePoint>& queue : inflight_) {
    queue.clear();
  }
  streams_.clear();
  if (config_.record_streams) {
    streams_.resize(stream_count());
  }
  stats_ = StreamingStats{};
  radio_free_ = util::TimePoint{};
  last_arrival_ = util::TimePoint{};
  saw_packet_ = false;
}

DefenseResult run_streaming(StreamingReshaper& reshaper,
                            const traffic::Trace& trace) {
  reshaper.reset();
  for (const traffic::PacketRecord& record : trace.records()) {
    (void)reshaper.push(record);
  }
  return reshaper.result(trace.app());
}

}  // namespace reshape::core::online
