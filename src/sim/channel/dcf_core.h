// The simplified 802.11 DCF rules, with no simulator attached.
//
// DcfCore is the one place the channel-access rules live. It holds every
// station's queue of pending frames, the backoff state and the channel's
// busy period, and it is driven by two calls at instants the caller
// supplies: enqueue() hands it a frame, decide() resolves the channel
// access due at next_decision(). Two drivers use it:
//   * ChannelArbiter (channel_arbiter.h), the live adapter: a simulator
//     timer fires decide() and the adapter broadcasts the winner's frame;
//   * ArbitratedCell (arbitrated_cell.h), which knows every release up
//     front and runs the same calls from a plain loop.
// A frame is known to the core only as a caller handle, its size and its
// enqueue instant; the caller keeps whatever else the frame carries.
//
// The model:
//   * A frame's channel occupancy is mac::airtime(size, bitrate), whose
//     fixed budget already contains the per-frame DIFS + preamble. This
//     matches core::airtime and the StreamingReshaper radio model exactly,
//     so the arbitrated timeline is directly comparable to the modeled
//     one: with a single station and zero backoff (DcfParams::
//     uncontended()) the two are *identical* — the golden-parity property
//     tests/channel_test.cc asserts.
//   * Contention adds only its own overhead on top: when the channel is
//     busy, stations freeze; at idle (plus the optional extra `difs`
//     sensing gap) every pending station counts down backoff slots drawn
//     from [0, cw]. The earliest station transmits; simultaneous expiry is
//     a collision — the channel is wasted for the longest colliding frame
//     (plus `sifs` quiet), colliders double cw and redraw, and a frame
//     that collides more than retry_limit times is dropped.
//   * Determinism: each station's backoff draws come from a keyed
//     util::Rng::fork of the core's seed by registration order
//     (add_station), so a contention scenario replays bit-identically for
//     any campaign sharding or thread count.
//
// Scale: a decision is O(log n) in the contending stations, not
// O(stations). Backoff countdowns live on a global *slot offset* — a
// station's draw becomes an absolute coordinate (offset at draw + slots),
// crediting elapsed idle slots to all stations is one offset bump, and
// the next winner is the min of a binary heap of coordinates. Every
// station's queue is an intrusive FIFO over one shared entry pool with a
// free list, so a queued frame costs no allocation once the pool has
// grown to the run's peak backlog, and a frame's occupancy is read from a
// size -> airtime table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "obs/windowed.h"
#include "sim/channel/channel_stats.h"
#include "util/rng.h"
#include "util/time.h"

namespace reshape::sim::channel {

/// Knobs of the simplified DCF. Defaults are 802.11g-flavoured.
struct DcfParams {
  /// Backoff slot time.
  util::Duration slot = util::Duration::microseconds(9);

  /// Extra idle sensing required after a busy period, *before* the
  /// countdown resumes. Defaults to zero because mac::airtime already
  /// charges a DIFS + preamble budget per frame (keeping the arbitrated
  /// timeline comparable to the StreamingReshaper's modeled radio);
  /// raise it to model stricter inter-frame spacing.
  util::Duration difs = util::Duration::microseconds(0);

  /// Extra quiet time after a collision before re-contention (EIFS-ish).
  util::Duration sifs = util::Duration::microseconds(16);

  /// Contention window bounds: backoff slots are drawn uniformly from
  /// [0, cw], cw starting at cw_min and doubling (2cw+1) per collision
  /// up to cw_max.
  std::uint32_t cw_min = 15;
  std::uint32_t cw_max = 1023;

  /// A frame colliding more than this many times is dropped.
  std::uint32_t retry_limit = 7;

  /// PHY bitrate frames serialize at (Mbit/s).
  double bitrate_mbps = 54.0;

  /// Contention disabled: zero backoff, no extra gaps. A single station
  /// on this configuration reproduces the StreamingReshaper shared-radio
  /// timeline exactly (frames go on air at max(enqueue, channel idle)).
  [[nodiscard]] static DcfParams uncontended(double bitrate_mbps = 54.0);
};

/// The DCF state machine of one channel.
class DcfCore {
 public:
  /// A frame that left a station's queue at a decision: its station, the
  /// handle it was enqueued under, and — when it went on the air — its
  /// channel occupancy and enqueue -> on-air delay.
  struct Departure {
    std::size_t station;
    std::uint64_t handle;
    util::Duration airtime;
    util::Duration access_delay;
  };

  /// What one decision did: either one frame went on the air (`sent`), or
  /// the winners collided and `dropped` lists the frames that passed the
  /// retry limit, in station order. `dropped` stays valid until the next
  /// decide().
  struct Outcome {
    bool sent = false;
    Departure on_air{};
    std::span<const Departure> dropped;
  };

  /// Validates `params` (positive bitrate, cw_min <= cw_max, no negative
  /// timing); `rng` seeds the per-station backoff substreams.
  DcfCore(DcfParams params, util::Rng rng);

  /// Registers the next station and returns its index. Registration order
  /// keys the backoff substreams, so register a station when it first
  /// transmits.
  std::size_t add_station();

  /// Capacity for `count` stations, so registering them never moves the
  /// station table.
  void reserve_stations(std::size_t count) { stations_.reserve(count); }

  /// Queues a frame of `size_bytes` behind station `station`'s earlier
  /// frames at `now`, which must not precede an earlier call's instant,
  /// and recomputes the next decision.
  void enqueue(std::size_t station, std::uint64_t handle,
               std::uint32_t size_bytes, util::TimePoint now);

  /// The instant the next channel-access decision is due, or nullopt
  /// while no frame is queued. Never earlier than the last enqueue() or
  /// decide() instant.
  [[nodiscard]] std::optional<util::TimePoint> next_decision() const {
    return decision_armed_ ? std::optional{decision_at_} : std::nullopt;
  }

  /// Resolves the decision due at `now` (== *next_decision()): the lone
  /// winner transmits, or the winners collide. Recomputes the next
  /// decision before it returns.
  const Outcome& decide(util::TimePoint now);

  [[nodiscard]] const DcfParams& params() const { return params_; }
  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }

  /// The stats of station `station`; the reference is invalidated by the
  /// next add_station().
  [[nodiscard]] const ChannelStats& stats(std::size_t station) const {
    return stations_[station].stats;
  }

  /// Channel-wide totals across every station.
  [[nodiscard]] ChannelStats totals() const;

  /// Frames still queued (all stations).
  [[nodiscard]] std::size_t pending() const { return queued_; }

  /// Frames put on the air so far (collided attempts excluded).
  [[nodiscard]] std::uint64_t frames_on_air() const { return frames_on_air_; }

  /// Decisions that ended in a collision (one per wasted busy period).
  [[nodiscard]] std::uint64_t collision_events() const {
    return collision_events_;
  }

  /// Accumulated channel-busy time (successful frames + collisions).
  [[nodiscard]] util::Duration busy_time() const { return busy_accum_; }

  /// busy_time over the span from first enqueue to the end of the last
  /// busy period; 0 before any activity.
  [[nodiscard]] double utilization() const;

  /// Attaches windowed-series emission (nullptr detaches): every
  /// transmission observes channel_access_delay_us and
  /// channel_airtime_us at its on-air instant, every expired frame
  /// observes channel_dropped at the drop instant, all under `labels`.
  /// Observation-only: no DCF decision reads it.
  void set_windowed(obs::WindowedRegistry* registry,
                    const obs::LabelSet& labels = {});

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  /// One queued frame; `next` links it into its station's FIFO, or into
  /// the free list once it has left.
  struct Entry {
    std::uint64_t handle;
    util::TimePoint enqueued;
    std::uint32_t size_bytes;
    std::uint32_t next;
  };
  struct Station {
    // Backoff coordinate on the global slot axis: offset-at-draw + drawn
    // slots. Effective remaining slots = max(0, coordinate - offset_).
    std::int64_t coordinate = 0;
    std::uint32_t head = kNone;  // FIFO of entries_, oldest first
    std::uint32_t tail = kNone;
    std::uint32_t depth = 0;
    std::uint32_t cw = 0;            // current contention window
    std::uint32_t retries = 0;       // of the head frame
    bool drawn = false;              // a coordinate is live (in the heap)
    bool queued_for_draw = false;    // listed in undrawn_
    util::Rng rng;
    ChannelStats stats;
  };

  [[nodiscard]] util::Duration occupancy_of(std::uint32_t size_bytes) const;

  /// Unlinks station `station`'s oldest frame and returns it.
  Entry pop_head(Station& station);

  /// Marks a station as needing a backoff draw at the next decision.
  void mark_undrawn(std::size_t station);

  /// Recomputes the next channel-access decision at `now`.
  void schedule(util::TimePoint now);

  void transmit_head(std::size_t station, util::TimePoint now);
  void collide(util::TimePoint now);

  DcfParams params_;
  util::Rng rng_;
  // mac::airtime of every size up to kMaxFrameBytes at params_.bitrate_mbps.
  std::vector<util::Duration> airtime_;
  std::vector<Station> stations_;  // in registration order
  std::vector<Entry> entries_;     // every station's FIFO entries
  std::uint32_t free_ = kNone;     // head of the free entries
  std::size_t queued_ = 0;
  // Min-heap of (coordinate, station) over drawn pending stations; a
  // station leaves only by winning/colliding at a decision, so entries
  // never go stale.
  std::vector<std::pair<std::int64_t, std::uint32_t>> countdown_heap_;
  std::vector<std::uint32_t> undrawn_;  // pending stations needing a draw
  // decide()'s scratch buffers, kept across decisions so a decision does
  // not allocate.
  std::vector<std::uint32_t> winners_;
  std::vector<Departure> dropped_;
  Outcome outcome_;
  std::int64_t offset_ = 0;        // elapsed idle slots since the epoch
  bool counting_ = false;          // an idle countdown is in progress
  bool decision_armed_ = false;    // decision_at_ is due
  util::TimePoint decision_at_;
  util::TimePoint countdown_origin_;
  util::TimePoint busy_until_;
  util::Duration busy_accum_;
  util::TimePoint first_activity_;
  bool saw_activity_ = false;
  std::uint64_t frames_on_air_ = 0;
  std::uint64_t collision_events_ = 0;
  // Windowed-series handles, resolved once in set_windowed (nullptr = off).
  struct WindowedEmit {
    obs::WindowedSeries* access_delay = nullptr;
    obs::WindowedSeries* airtime = nullptr;
    obs::WindowedSeries* dropped = nullptr;
  };
  WindowedEmit windowed_;
};

}  // namespace reshape::sim::channel
