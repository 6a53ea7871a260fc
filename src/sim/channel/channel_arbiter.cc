#include "sim/channel/channel_arbiter.h"

#include <utility>

#include "util/check.h"

namespace reshape::sim::channel {

ChannelArbiter::ChannelArbiter(Simulator& simulator, Medium& medium,
                               int channel, DcfParams params, util::Rng rng)
    : simulator_{simulator},
      medium_{medium},
      channel_{channel},
      core_{params, rng},
      decision_{simulator.add_timer([this] { decide(); })} {
  medium_.install_arbiter(*this);
}

ChannelArbiter::~ChannelArbiter() {
  simulator_.disarm_timer(decision_);
  medium_.uninstall_arbiter(*this);
}

void ChannelArbiter::enqueue(mac::Frame frame, Position tx_position,
                             const RadioListener* transmitter) {
  util::require(frame.channel == channel_,
                "ChannelArbiter::enqueue: frame tuned to another channel");
  util::require(transmitter != nullptr,
                "ChannelArbiter::enqueue: transmitter identity required "
                "(anonymous frames cannot contend)");
  // First transmission registers the station: registration order keys
  // its backoff substream.
  const auto [it, inserted] =
      station_index_.try_emplace(transmitter, ids_.size());
  if (inserted) {
    ids_.push_back(transmitter);
    core_.add_station();
  }
  const util::TimePoint now = simulator_.now();
  if (trace_ != nullptr) {
    trace_->record(frame.trace_id, obs::Hop::kChannelEnqueue, now);
  }
  const std::uint32_t size_bytes = frame.size_bytes;
  std::uint64_t handle = frames_.size();
  if (!free_frames_.empty()) {
    handle = free_frames_.back();
    free_frames_.pop_back();
    frames_[handle] = Pending{std::move(frame), tx_position};
  } else {
    frames_.push_back(Pending{std::move(frame), tx_position});
  }
  core_.enqueue(it->second, handle, size_bytes, now);
  rearm();
}

ChannelArbiter::Pending ChannelArbiter::take(std::uint64_t handle) {
  Pending pending = std::move(frames_[handle]);
  free_frames_.push_back(handle);
  return pending;
}

void ChannelArbiter::rearm() {
  if (const auto at = core_.next_decision()) {
    simulator_.arm_timer(decision_, *at);
  } else {
    simulator_.disarm_timer(decision_);
  }
}

void ChannelArbiter::decide() {
  const util::TimePoint now = simulator_.now();
  // The core has already redrawn every station left contending, so a
  // re-entrant enqueue from the hooks or the broadcast below sees them.
  const DcfCore::Outcome& outcome = core_.decide(now);
  if (outcome.sent) {
    const DcfCore::Departure sent = outcome.on_air;
    Pending pending = take(sent.handle);
    pending.frame.timestamp = now;  // the instant the sniffer observes
    const RadioListener* id = ids_[sent.station];
    if (trace_ != nullptr) {
      trace_->record(pending.frame.trace_id, obs::Hop::kOnAir, now,
                     sent.airtime.count_us());
    }
    // Listeners may transmit from on_frame (handshake replies), which
    // re-enters enqueue() and can register stations.
    if (on_air_hook_) {
      on_air_hook_(pending.frame, sent.access_delay, id);
    }
    medium_.broadcast(pending.frame, pending.position, id);
  } else {
    for (const DcfCore::Departure& dropped : outcome.dropped) {
      const Pending pending = take(dropped.handle);
      if (trace_ != nullptr) {
        trace_->record(pending.frame.trace_id, obs::Hop::kDropped, now);
      }
      if (drop_hook_) {
        drop_hook_(pending.frame, ids_[dropped.station]);
      }
    }
  }
  rearm();
}

const ChannelStats* ChannelArbiter::stats_of(
    const RadioListener* transmitter) const {
  const auto it = station_index_.find(transmitter);
  if (it == station_index_.end()) {
    return nullptr;
  }
  return &core_.stats(it->second);
}

}  // namespace reshape::sim::channel
