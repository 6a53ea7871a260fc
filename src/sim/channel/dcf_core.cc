#include "sim/channel/dcf_core.h"

#include <algorithm>

#include "mac/frame.h"
#include "util/check.h"

namespace reshape::sim::channel {

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
  return DcfParams{.slot = {}, .difs = {}, .sifs = {}, .cw_min = 0,
                   .cw_max = 0, .bitrate_mbps = bitrate_mbps};
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

DcfCore::DcfCore(DcfParams params, util::Rng rng)
    : params_{params}, rng_{rng} {
  util::require(params_.bitrate_mbps > 0.0,
                "DcfCore: bitrate must be positive");
  util::require(params_.cw_min <= params_.cw_max,
                "DcfCore: cw_min must be <= cw_max");
  util::require(params_.slot >= util::Duration{} &&
                    params_.difs >= util::Duration{} &&
                    params_.sifs >= util::Duration{},
                "DcfCore: negative DCF timing");
  airtime_.reserve(mac::kMaxFrameBytes + 1);
  for (std::uint32_t size = 0; size <= mac::kMaxFrameBytes; ++size) {
    airtime_.push_back(mac::airtime(size, params_.bitrate_mbps));
  }
}

std::size_t DcfCore::add_station() {
  // Keyed substream per registration index: the station's backoff draws
  // depend only on the seed and its registration order, never on how
  // other stations interleave.
  stations_.push_back(Station{.cw = params_.cw_min,
                              .rng = rng_.fork(stations_.size()),
                              .stats = {}});
  return stations_.size() - 1;
}

util::Duration DcfCore::occupancy_of(std::uint32_t size_bytes) const {
  return size_bytes < airtime_.size()
             ? airtime_[size_bytes]
             : mac::airtime(size_bytes, params_.bitrate_mbps);
}

DcfCore::Entry DcfCore::pop_head(Station& station) {
  const std::uint32_t slot = station.head;
  const Entry entry = entries_[slot];
  station.head = entry.next;
  if (station.head == kNone) {
    station.tail = kNone;
  }
  --station.depth;
  --queued_;
  entries_[slot].next = free_;
  free_ = slot;
  return entry;
}

void DcfCore::mark_undrawn(std::size_t index) {
  Station& station = stations_[index];
  if (station.drawn || station.queued_for_draw) {
    return;
  }
  station.queued_for_draw = true;
  undrawn_.push_back(static_cast<std::uint32_t>(index));
}

void DcfCore::enqueue(std::size_t index, std::uint64_t handle,
                      std::uint32_t size_bytes, util::TimePoint now) {
  if (!saw_activity_) {
    first_activity_ = now;
    saw_activity_ = true;
  }
  Station& station = stations_.at(index);
  const Entry entry{handle, now, size_bytes, kNone};
  std::uint32_t slot = free_;
  if (slot != kNone) {
    free_ = entries_[slot].next;
    entries_[slot] = entry;
  } else {
    slot = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(entry);
  }
  (station.tail == kNone ? station.head : entries_[station.tail].next) = slot;
  station.tail = slot;
  ++station.depth;
  ++queued_;
  station.stats.max_queue_depth =
      std::max<std::size_t>(station.stats.max_queue_depth, station.depth);
  mark_undrawn(index);
  schedule(now);
}

void DcfCore::schedule(util::TimePoint now) {
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
    if (station.depth == 0) {
      continue;  // emptied before the decision; redraws on next arrival
    }
    station.coordinate = offset_ + station.rng.uniform_int(0, station.cw);
    station.drawn = true;
    countdown_heap_.emplace_back(station.coordinate, index);
    std::push_heap(countdown_heap_.begin(), countdown_heap_.end(),
                   CoordinateLater{});
  }
  undrawn_.clear();

  decision_armed_ = !countdown_heap_.empty();
  if (!decision_armed_) {
    return;  // nothing pending
  }
  const std::int64_t min_slots =
      std::max<std::int64_t>(0, countdown_heap_.front().first - offset_);
  countdown_origin_ = start;
  counting_ = true;
  // The resumed origin may sit up to one slot in the past; a station
  // whose countdown already expired (or a zero-backoff newcomer on an
  // idle channel) transmits now, never in the past.
  decision_at_ = std::max(start + params_.slot * min_slots, now);
}

const DcfCore::Outcome& DcfCore::decide(util::TimePoint now) {
  util::internal_check(decision_armed_ && now == decision_at_ &&
                           undrawn_.empty(),
                       "DcfCore::decide: no decision due");
  counting_ = false;
  decision_armed_ = false;
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
  // Registration order: stats and drops come out in a station-stable
  // order regardless of heap pop order on ties.
  std::sort(winners_.begin(), winners_.end());

  outcome_ = Outcome{};
  if (winners_.size() == 1) {
    transmit_head(winners_.front(), now);
  } else {
    collide(now);
  }
  schedule(now);
  return outcome_;
}

void DcfCore::transmit_head(std::size_t index, util::TimePoint now) {
  Station& station = stations_[index];
  const Entry entry = pop_head(station);
  station.retries = 0;
  station.cw = params_.cw_min;
  if (station.depth != 0) {
    mark_undrawn(index);  // contends for its next frame
  }

  const util::Duration on_air = occupancy_of(entry.size_bytes);
  busy_until_ = now + on_air;
  busy_accum_ += on_air;
  ++frames_on_air_;

  const util::Duration delay = now - entry.enqueued;
  ++station.stats.frames_sent;
  station.stats.airtime += on_air;
  station.stats.total_access_delay += delay;
  station.stats.max_access_delay =
      std::max(station.stats.max_access_delay, delay);
  if (windowed_.access_delay != nullptr) {
    // Windowed emission keys off the on-air instant — when the cost was
    // actually paid on the channel.
    windowed_.access_delay->observe(now,
                                    static_cast<double>(delay.count_us()));
    windowed_.airtime->observe(now, static_cast<double>(on_air.count_us()));
  }
  outcome_.sent = true;
  outcome_.on_air = Departure{index, entry.handle, on_air, delay};
}

void DcfCore::collide(util::TimePoint now) {
  // The channel is wasted for the longest colliding frame, all colliders
  // double their window and redraw; a frame past the retry limit is
  // dropped.
  ++collision_events_;
  util::Duration occupancy;
  for (const std::uint32_t i : winners_) {
    occupancy = std::max(
        occupancy, occupancy_of(entries_[stations_[i].head].size_bytes));
  }
  busy_until_ = now + occupancy + params_.sifs;
  busy_accum_ += occupancy;

  dropped_.clear();
  for (const std::uint32_t i : winners_) {
    Station& station = stations_[i];
    ++station.stats.collisions;
    ++station.retries;
    if (station.retries > params_.retry_limit) {
      ++station.stats.frames_dropped;
      dropped_.push_back(Departure{i, pop_head(station).handle, {}, {}});
      station.retries = 0;
      station.cw = params_.cw_min;
      if (windowed_.dropped != nullptr) {
        windowed_.dropped->observe(now, 1.0);
      }
    } else {
      ++station.stats.retries;
      station.cw = std::min(2 * station.cw + 1, params_.cw_max);
    }
    if (station.depth != 0) {
      mark_undrawn(i);  // redraw at the next countdown
    }
  }
  outcome_.dropped = dropped_;
}

void DcfCore::set_windowed(obs::WindowedRegistry* registry,
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

ChannelStats DcfCore::totals() const {
  ChannelStats totals;
  for (const Station& station : stations_) {
    totals.merge(station.stats);
  }
  return totals;
}

double DcfCore::utilization() const {
  if (!saw_activity_ || busy_until_ <= first_activity_) {
    return 0.0;
  }
  return static_cast<double>(busy_accum_.count_us()) /
         static_cast<double>((busy_until_ - first_activity_).count_us());
}

}  // namespace reshape::sim::channel
