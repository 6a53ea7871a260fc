// Contention-aware channel access: a simplified 802.11 DCF arbiter.
//
// sim::Medium used to deliver every frame the instant transmit() was
// called, so co-channel stations never contended and the sniffer never saw
// what channel access costs. ChannelArbiter replaces that with the real
// pipeline: transmit() becomes an *enqueue*, the arbiter runs carrier
// sense and slotted exponential backoff over every attached station's
// queue through sim::Simulator's event loop, and the frame is *broadcast*
// only at its arbitrated on-air instant — which is also stamped into
// frame.timestamp, so attack::Sniffer captures true on-air timing.
//
// The model (one arbiter per channel):
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
//     util::Rng::fork of the arbiter seed by first-transmission order, so
//     a contention scenario replays bit-identically for any campaign
//     sharding or thread count.
//
// Scale: the contention loop is O(log n) per channel-access decision, not
// O(stations). Backoff countdowns live on a global *slot offset* — a
// station's draw becomes an absolute coordinate (offset at draw + slots),
// crediting elapsed idle slots to all stations is one offset bump, and
// the next winner is the min of a binary heap of coordinates. The pending
// decision is one re-armable simulator timer: every state change re-arms
// it, so no superseded decision is ever queued or dispatched, and each
// decision event that fires transmits or collides. A decision reuses
// member scratch buffers instead of allocating its winner list, and a
// frame's occupancy is read from a size -> airtime table. Callers that
// know their releases up front drive a cell through ArbitratedCell
// (arbitrated_cell.h): stations enqueue by index, with no per-frame
// identity lookup, and the event queue holds one pending release per
// time-sorted chain plus the decision — not every frame of the run. A
// 10k-station cell is a registry scenario, not a hang.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "mac/frame.h"
#include "obs/packet_trace.h"
#include "obs/windowed.h"
#include "sim/channel/channel_stats.h"
#include "sim/medium.h"
#include "sim/simulator.h"
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

/// Serializes all transmissions on one channel of a Medium.
///
/// Constructing an arbiter installs it into the medium (Medium::transmit
/// on this channel routes through enqueue()); destruction uninstalls it.
/// The medium and simulator must outlive the arbiter, and the arbiter
/// must outlive any pending simulator events — run the simulator dry
/// before tearing down, as with every other entity in the sim.
class ChannelArbiter : private EventHandler {
 public:
  /// On-air notification: the frame exactly as broadcast (timestamp = the
  /// arbitrated on-air instant), its access delay (enqueue -> on-air),
  /// and the transmitter identity handed to enqueue(). Hooks must not
  /// enqueue synchronously.
  using OnAirHook = std::function<void(
      const mac::Frame&, util::Duration access_delay,
      const RadioListener* transmitter)>;

  /// Drop notification (retry limit exceeded); same identity contract.
  using DropHook =
      std::function<void(const mac::Frame&, const RadioListener* transmitter)>;

  /// `rng` seeds the per-station backoff substreams (keyed fork by the
  /// station's first-transmission order).
  ChannelArbiter(Simulator& simulator, Medium& medium, int channel,
                 DcfParams params, util::Rng rng);
  ~ChannelArbiter();
  ChannelArbiter(const ChannelArbiter&) = delete;
  ChannelArbiter& operator=(const ChannelArbiter&) = delete;

  /// Queues a frame for arbitrated transmission. `transmitter` is the
  /// station identity (the same pointer stations pass as Medium::transmit's
  /// exclude) and must be non-null — anonymous frames cannot contend.
  /// The identity must stay unique for the arbiter's lifetime (per-station
  /// queues, backoff streams, and ChannelStats are keyed on it; do not
  /// recycle a dead station's address for a new one mid-simulation).
  /// Per-station FIFO order is preserved on the air. The frame must be
  /// tuned to this arbiter's channel.
  void enqueue(mac::Frame frame, Position tx_position,
               const RadioListener* transmitter);

  /// The station index of `transmitter` (non-null), registering it on
  /// first use: registration order keys the backoff substreams, so call
  /// this when the station first transmits.
  [[nodiscard]] std::size_t station_of(const RadioListener* transmitter);

  /// enqueue() by station index (from station_of), with no identity
  /// lookup; the frame is moved once, into the station's queue.
  void enqueue(std::size_t station, mac::Frame&& frame, Position tx_position);

  [[nodiscard]] int channel() const { return channel_; }
  [[nodiscard]] const DcfParams& params() const { return params_; }

  /// The stats of one station, or nullptr for an identity that never
  /// transmitted here. The pointer stays valid for the arbiter's lifetime.
  [[nodiscard]] const ChannelStats* stats_of(
      const RadioListener* transmitter) const;

  /// Channel-wide totals across every station.
  [[nodiscard]] ChannelStats totals() const;

  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }

  /// Frames still queued (all stations).
  [[nodiscard]] std::size_t pending() const;

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

  void set_on_air_hook(OnAirHook hook) { on_air_hook_ = std::move(hook); }
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Attaches a lifecycle tracer (nullptr detaches). Frames arriving with
  /// a non-zero trace_id get channel-enqueue / on-air / dropped span
  /// events; observation-only, the DCF state machine never reads it.
  void set_packet_trace(obs::PacketTrace* trace) { trace_ = trace; }

  /// Attaches windowed-series emission (nullptr detaches): every
  /// transmission observes channel_access_delay_us and
  /// channel_airtime_us at its on-air instant, every expired frame
  /// observes channel_dropped at the drop instant, all under `labels`.
  /// Observation-only, like the packet trace.
  void set_windowed(obs::WindowedRegistry* registry,
                    const obs::LabelSet& labels = {});

 private:
  struct Pending {
    mac::Frame frame;
    Position position;
    util::TimePoint enqueued;
  };
  struct Station {
    const RadioListener* id = nullptr;
    std::deque<Pending> queue;
    // Backoff coordinate on the global slot axis: offset-at-draw + drawn
    // slots. Effective remaining slots = max(0, coordinate - offset_).
    std::int64_t coordinate = 0;
    bool drawn = false;       // a coordinate is live (station in the heap)
    bool queued_for_draw = false;  // listed in undrawn_
    std::uint32_t cw = 0;          // current contention window
    std::uint32_t retries = 0;     // of the head frame
    util::Rng rng;
    ChannelStats stats;
  };

  [[nodiscard]] util::Duration occupancy_of(const mac::Frame& frame) const;

  /// Marks a station as needing a backoff draw at the next decision.
  void mark_undrawn(std::size_t station_index);

  /// Recomputes the next channel-access decision and re-arms the
  /// decision timer for it (disarms it when nothing is pending).
  void schedule_decision();

  /// Fires at countdown expiry: transmits the winner or resolves a
  /// collision.
  void decide();

  /// Decision-timer dispatch (sim::EventHandler).
  void on_event(std::uint64_t, std::uint64_t) override { decide(); }

  void transmit_head(std::size_t station_index);

  Simulator& simulator_;
  Medium& medium_;
  int channel_;
  DcfParams params_;
  util::Rng rng_;
  EventQueue::TimerId decision_;
  // mac::airtime of every size up to kMaxFrameBytes at params_.bitrate_mbps.
  std::vector<util::Duration> airtime_;
  // Ordered by first transmission; deque so stats_of() pointers stay
  // valid while later stations register.
  std::deque<Station> stations_;
  std::unordered_map<const RadioListener*, std::size_t> station_index_;
  // Min-heap of (coordinate, station) over drawn pending stations; a
  // station leaves only by winning/colliding at a decision, so entries
  // never go stale.
  std::vector<std::pair<std::int64_t, std::uint32_t>> countdown_heap_;
  std::vector<std::uint32_t> undrawn_;  // pending stations needing a draw
  // decide()'s scratch buffers, kept across decisions so a decision does
  // not allocate (decide() never re-enters itself: hooks may only
  // enqueue, which re-arms the decision timer).
  std::vector<std::size_t> winners_;
  std::vector<std::pair<mac::Frame, const RadioListener*>> dropped_;
  std::int64_t offset_ = 0;        // elapsed idle slots since the epoch
  bool counting_ = false;          // an idle countdown is in progress
  util::TimePoint countdown_origin_;
  util::TimePoint busy_until_;
  util::Duration busy_accum_;
  util::TimePoint first_activity_;
  bool saw_activity_ = false;
  std::uint64_t frames_on_air_ = 0;
  std::uint64_t collision_events_ = 0;
  OnAirHook on_air_hook_;
  DropHook drop_hook_;
  obs::PacketTrace* trace_ = nullptr;  // not owned; nullptr = untraced
  // Windowed-series handles, resolved once in set_windowed (nullptr = off).
  struct WindowedEmit {
    obs::WindowedSeries* access_delay = nullptr;
    obs::WindowedSeries* airtime = nullptr;
    obs::WindowedSeries* dropped = nullptr;
  };
  WindowedEmit windowed_;
};

}  // namespace reshape::sim::channel
