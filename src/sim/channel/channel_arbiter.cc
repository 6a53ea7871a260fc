#include "sim/channel/channel_arbiter.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace reshape::sim::channel {

double ChannelStats::mean_access_delay_us() const {
  if (frames_sent == 0) {
    return 0.0;
  }
  return static_cast<double>(total_access_delay.count_us()) /
         static_cast<double>(frames_sent);
}

void ChannelStats::merge(const ChannelStats& other) {
  frames_sent += other.frames_sent;
  frames_dropped += other.frames_dropped;
  collisions += other.collisions;
  retries += other.retries;
  total_access_delay += other.total_access_delay;
  max_access_delay = std::max(max_access_delay, other.max_access_delay);
  airtime += other.airtime;
  max_queue_depth = std::max(max_queue_depth, other.max_queue_depth);
}

DcfParams DcfParams::uncontended(double bitrate_mbps) {
  DcfParams params;
  params.slot = util::Duration{};
  params.difs = util::Duration{};
  params.sifs = util::Duration{};
  params.cw_min = 0;
  params.cw_max = 0;
  params.bitrate_mbps = bitrate_mbps;
  return params;
}

namespace {
// Min-heap (std::push_heap/pop_heap build max-heaps; invert).
struct CoordinateLater {
  bool operator()(const std::pair<std::int64_t, std::uint32_t>& a,
                  const std::pair<std::int64_t, std::uint32_t>& b) const {
    return a.first > b.first;
  }
};
}  // namespace

ChannelArbiter::ChannelArbiter(Simulator& simulator, Medium& medium,
                               int channel, DcfParams params, util::Rng rng)
    : simulator_{simulator},
      medium_{medium},
      channel_{channel},
      params_{params},
      rng_{rng} {
  util::require(params_.bitrate_mbps > 0.0,
                "ChannelArbiter: bitrate must be positive");
  util::require(params_.cw_min <= params_.cw_max,
                "ChannelArbiter: cw_min must be <= cw_max");
  util::require(params_.slot >= util::Duration{} &&
                    params_.difs >= util::Duration{} &&
                    params_.sifs >= util::Duration{},
                "ChannelArbiter: negative DCF timing");
  medium_.install_arbiter(*this);
}

ChannelArbiter::~ChannelArbiter() { medium_.uninstall_arbiter(*this); }

std::size_t ChannelArbiter::station_index_of(const RadioListener* id) {
  const auto [it, inserted] = station_index_.try_emplace(id, stations_.size());
  if (inserted) {
    // Keyed substream per registration index: the station's backoff draws
    // depend only on the arbiter seed and its first-transmission order,
    // never on how other stations interleave.
    stations_.push_back(Station{id, {}, 0, false, false, params_.cw_min, 0,
                                rng_.fork(stations_.size()), {}});
  }
  return it->second;
}

util::Duration ChannelArbiter::occupancy_of(const mac::Frame& frame) const {
  return mac::airtime(frame.size_bytes, params_.bitrate_mbps);
}

void ChannelArbiter::mark_undrawn(std::size_t station_index) {
  Station& station = stations_[station_index];
  if (station.drawn || station.queued_for_draw) {
    return;
  }
  station.queued_for_draw = true;
  undrawn_.push_back(static_cast<std::uint32_t>(station_index));
}

void ChannelArbiter::enqueue(mac::Frame frame, Position tx_position,
                             const RadioListener* transmitter) {
  util::require(frame.channel == channel_,
                "ChannelArbiter::enqueue: frame tuned to another channel");
  util::require(transmitter != nullptr,
                "ChannelArbiter::enqueue: transmitter identity required "
                "(anonymous frames cannot contend)");
  const util::TimePoint now = simulator_.now();
  if (!saw_activity_) {
    first_activity_ = now;
    saw_activity_ = true;
  }
  if (trace_ != nullptr) {
    trace_->record(frame.trace_id, obs::Hop::kChannelEnqueue, now);
  }
  const std::size_t index = station_index_of(transmitter);
  Station& station = stations_[index];
  station.queue.push_back(Pending{std::move(frame), tx_position, now});
  station.stats.max_queue_depth =
      std::max(station.stats.max_queue_depth, station.queue.size());
  mark_undrawn(index);
  schedule_decision();
}

void ChannelArbiter::schedule_decision() {
  ++generation_;  // supersede any outstanding decision event
  const util::TimePoint now = simulator_.now();
  util::TimePoint start = std::max(now, busy_until_ + params_.difs);
  if (counting_) {
    // An idle countdown is being interrupted (new enqueue). Credit the
    // fully elapsed slots to every station that was already counting and
    // resume from the start of the partially elapsed slot: DCF does not
    // restart peers' backoff on a foreign arrival, so countdown progress
    // — including the sub-slot fraction — must survive interruptions
    // (arrivals spaced closer than one slot would otherwise freeze every
    // peer's countdown and starve the channel). Crediting is one bump of
    // the shared slot offset; per-station remainders are read back as
    // max(0, coordinate - offset).
    util::TimePoint resume = countdown_origin_;
    if (params_.slot > util::Duration{} && now > countdown_origin_) {
      const std::int64_t elapsed = (now - countdown_origin_) / params_.slot;
      offset_ += elapsed;
      resume = countdown_origin_ + params_.slot * elapsed;
    }
    start = std::max(resume, busy_until_ + params_.difs);
  }
  counting_ = false;

  // Draw coordinates for stations that (re)entered contention.
  for (const std::uint32_t index : undrawn_) {
    Station& station = stations_[index];
    station.queued_for_draw = false;
    if (station.queue.empty()) {
      continue;  // emptied before the decision; redraws on next arrival
    }
    station.coordinate = offset_ + station.rng.uniform_int(0, station.cw);
    station.drawn = true;
    countdown_heap_.emplace_back(station.coordinate, index);
    std::push_heap(countdown_heap_.begin(), countdown_heap_.end(),
                   CoordinateLater{});
  }
  undrawn_.clear();

  if (countdown_heap_.empty()) {
    return;  // nothing pending
  }

  const std::int64_t min_slots =
      std::max<std::int64_t>(0, countdown_heap_.front().first - offset_);
  countdown_origin_ = start;
  counting_ = true;
  // The resumed origin may sit up to one slot in the past; a station
  // whose countdown already expired (or a zero-backoff newcomer on an
  // idle channel) transmits now, never in the simulated past.
  simulator_.schedule_event(std::max(start + params_.slot * min_slots, now),
                            *this, generation_);
}

void ChannelArbiter::decide(std::uint64_t generation) {
  if (generation != generation_) {
    return;  // state changed since this decision was scheduled
  }
  counting_ = false;

  util::internal_check(!countdown_heap_.empty() && undrawn_.empty(),
                       "ChannelArbiter::decide: no pending station");
  // All stations whose countdown expires at this decision win together;
  // losers keep their remainder (coordinate - offset) frozen on the heap.
  const std::int64_t expiry =
      std::max(offset_, countdown_heap_.front().first);
  winners_.clear();
  while (!countdown_heap_.empty() && countdown_heap_.front().first <= expiry) {
    std::pop_heap(countdown_heap_.begin(), countdown_heap_.end(),
                  CoordinateLater{});
    const std::uint32_t index = countdown_heap_.back().second;
    countdown_heap_.pop_back();
    stations_[index].drawn = false;
    winners_.push_back(index);
  }
  offset_ = expiry;
  util::internal_check(!winners_.empty(),
                       "ChannelArbiter::decide: countdown without winner");
  // Registration order: stats, hooks, and drop notifications fire in a
  // station-stable order regardless of heap pop order on ties.
  std::sort(winners_.begin(), winners_.end());

  if (winners_.size() == 1) {
    transmit_head(winners_.front());
    return;
  }

  // Collision: the channel is wasted for the longest colliding frame, all
  // colliders double their window and redraw; a frame past the retry
  // limit is dropped.
  const util::TimePoint now = simulator_.now();
  util::Duration occupancy;
  for (const std::size_t i : winners_) {
    occupancy =
        std::max(occupancy, occupancy_of(stations_[i].queue.front().frame));
  }
  busy_until_ = now + occupancy + params_.sifs;
  busy_accum_ += occupancy;

  dropped_.clear();
  for (const std::size_t i : winners_) {
    Station& station = stations_[i];
    ++station.stats.collisions;
    ++station.retries;
    if (station.retries > params_.retry_limit) {
      ++station.stats.frames_dropped;
      dropped_.emplace_back(std::move(station.queue.front().frame),
                            station.id);
      station.queue.pop_front();
      station.retries = 0;
      station.cw = params_.cw_min;
    } else {
      ++station.stats.retries;
      station.cw = std::min(2 * station.cw + 1, params_.cw_max);
    }
    if (!station.queue.empty()) {
      mark_undrawn(i);  // redraw at the next countdown
    }
  }
  if (trace_ != nullptr) {
    for (const auto& [frame, id] : dropped_) {
      trace_->record(frame.trace_id, obs::Hop::kDropped, now);
    }
  }
  if (windowed_.dropped != nullptr) {
    for (std::size_t d = 0; d < dropped_.size(); ++d) {
      windowed_.dropped->observe(now, 1.0);
    }
  }
  if (drop_hook_) {
    for (const auto& [frame, id] : dropped_) {
      drop_hook_(frame, id);
    }
  }
  schedule_decision();
}

void ChannelArbiter::transmit_head(std::size_t station_index) {
  Station& station = stations_[station_index];
  Pending pending = std::move(station.queue.front());
  station.queue.pop_front();
  station.retries = 0;
  station.cw = params_.cw_min;
  if (!station.queue.empty()) {
    // Redraw before the hooks below: a re-entrant enqueue runs
    // schedule_decision, which must already see this station as a
    // contender for its next frame.
    mark_undrawn(station_index);
  }

  const util::TimePoint now = simulator_.now();
  const util::Duration on_air = occupancy_of(pending.frame);
  pending.frame.timestamp = now;  // the instant the sniffer observes
  busy_until_ = now + on_air;
  busy_accum_ += on_air;
  ++frames_on_air_;

  const util::Duration delay = now - pending.enqueued;
  ++station.stats.frames_sent;
  station.stats.airtime += on_air;
  station.stats.total_access_delay += delay;
  station.stats.max_access_delay =
      std::max(station.stats.max_access_delay, delay);
  const RadioListener* id = station.id;

  if (trace_ != nullptr) {
    trace_->record(pending.frame.trace_id, obs::Hop::kOnAir, now,
                   on_air.count_us());
  }
  if (windowed_.access_delay != nullptr) {
    // Windowed emission keys off the on-air instant — when the cost was
    // actually paid on the channel.
    windowed_.access_delay->observe(now,
                                    static_cast<double>(delay.count_us()));
    windowed_.airtime->observe(now, static_cast<double>(on_air.count_us()));
  }

  // Listeners may transmit from on_frame (handshake replies), which
  // re-enters enqueue() and can grow stations_ — no Station references
  // may be held across these calls.
  if (on_air_hook_) {
    on_air_hook_(pending.frame, delay, id);
  }
  medium_.broadcast(pending.frame, pending.position, id);
  schedule_decision();
}

void ChannelArbiter::set_windowed(obs::WindowedRegistry* registry,
                                  const obs::LabelSet& labels) {
  if (registry == nullptr) {
    windowed_ = WindowedEmit{};
    return;
  }
  windowed_.access_delay =
      &registry->series("channel_access_delay_us", labels);
  windowed_.airtime = &registry->series("channel_airtime_us", labels);
  windowed_.dropped = &registry->series("channel_dropped", labels);
}

const ChannelStats* ChannelArbiter::stats_of(
    const RadioListener* transmitter) const {
  const auto it = station_index_.find(transmitter);
  if (it == station_index_.end()) {
    return nullptr;
  }
  return &stations_[it->second].stats;
}

ChannelStats ChannelArbiter::totals() const {
  ChannelStats totals;
  for (const Station& station : stations_) {
    totals.merge(station.stats);
  }
  return totals;
}

std::size_t ChannelArbiter::pending() const {
  std::size_t count = 0;
  for (const Station& station : stations_) {
    count += station.queue.size();
  }
  return count;
}

double ChannelArbiter::utilization() const {
  if (!saw_activity_ || busy_until_ <= first_activity_) {
    return 0.0;
  }
  return static_cast<double>(busy_accum_.count_us()) /
         static_cast<double>((busy_until_ - first_activity_).count_us());
}

}  // namespace reshape::sim::channel
