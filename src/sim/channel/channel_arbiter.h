// Contention-aware channel access on a live sim::Medium.
//
// sim::Medium used to deliver every frame the instant transmit() was
// called, so co-channel stations never contended and the sniffer never saw
// what channel access costs. ChannelArbiter replaces that with the real
// pipeline: transmit() becomes an *enqueue*, the DCF rules of DcfCore
// (dcf_core.h, where the model is described) arbitrate every attached
// station's queue, and the frame is *broadcast* only at its arbitrated
// on-air instant — which is also stamped into frame.timestamp, so
// attack::Sniffer captures true on-air timing.
//
// The arbiter is the adapter between the core and sim::Simulator: it
// keeps each queued frame and its transmit position, maps station
// identities to core station indices (first transmission registers a
// station, which keys its backoff substream), records lifecycle-trace
// hops, calls the hooks and broadcasts. The pending decision is one
// re-armable simulator timer that calls decide(): every state change
// re-arms it, so no superseded decision is ever queued or dispatched, and
// each decision event that fires transmits or collides. Callers that know
// every release up front drive the same core from a plain loop instead
// (arbitrated_cell.h).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "mac/frame.h"
#include "obs/packet_trace.h"
#include "obs/windowed.h"
#include "sim/channel/channel_stats.h"
#include "sim/channel/dcf_core.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"

namespace reshape::sim::channel {

/// Serializes all transmissions on one channel of a Medium.
///
/// Constructing an arbiter installs it into the medium (Medium::transmit
/// on this channel routes through enqueue()); destruction uninstalls it.
/// The medium and simulator must outlive the arbiter, and the arbiter
/// must outlive any pending simulator events — run the simulator dry
/// before tearing down, as with every other entity in the sim.
class ChannelArbiter {
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

  [[nodiscard]] int channel() const { return channel_; }
  [[nodiscard]] const DcfParams& params() const { return core_.params(); }

  /// The stats of one station, or nullptr for an identity that never
  /// transmitted here. The pointer stays valid until another station
  /// first transmits.
  [[nodiscard]] const ChannelStats* stats_of(
      const RadioListener* transmitter) const;

  /// Channel-wide totals across every station.
  [[nodiscard]] ChannelStats totals() const { return core_.totals(); }

  [[nodiscard]] std::size_t station_count() const {
    return core_.station_count();
  }

  /// Frames still queued (all stations).
  [[nodiscard]] std::size_t pending() const { return core_.pending(); }

  /// Frames put on the air so far (collided attempts excluded).
  [[nodiscard]] std::uint64_t frames_on_air() const {
    return core_.frames_on_air();
  }

  /// Decisions that ended in a collision (one per wasted busy period).
  [[nodiscard]] std::uint64_t collision_events() const {
    return core_.collision_events();
  }

  /// Accumulated channel-busy time (successful frames + collisions).
  [[nodiscard]] util::Duration busy_time() const { return core_.busy_time(); }

  /// busy_time over the span from first enqueue to the end of the last
  /// busy period; 0 before any activity.
  [[nodiscard]] double utilization() const { return core_.utilization(); }

  void set_on_air_hook(OnAirHook hook) { on_air_hook_ = std::move(hook); }
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Attaches a lifecycle tracer (nullptr detaches). Frames arriving with
  /// a non-zero trace_id get channel-enqueue / on-air / dropped span
  /// events; observation-only, the DCF state machine never reads it.
  void set_packet_trace(obs::PacketTrace* trace) { trace_ = trace; }

  /// Attaches windowed-series emission (nullptr detaches); see
  /// DcfCore::set_windowed. Observation-only, like the packet trace.
  void set_windowed(obs::WindowedRegistry* registry,
                    const obs::LabelSet& labels = {}) {
    core_.set_windowed(registry, labels);
  }

 private:
  /// A queued frame as the medium will broadcast it.
  struct Pending {
    mac::Frame frame;
    Position position;
  };

  /// Removes the frame queued under `handle` from the frame store.
  [[nodiscard]] Pending take(std::uint64_t handle);

  /// Re-arms the decision timer at the core's next decision (disarms it
  /// when nothing is pending).
  void rearm();

  /// Fires at countdown expiry (the decision timer's callback): transmits
  /// the winner or resolves a collision.
  void decide();

  Simulator& simulator_;
  Medium& medium_;
  int channel_;
  DcfCore core_;
  EventQueue::TimerId decision_;
  std::vector<const RadioListener*> ids_;  // per core station index
  std::unordered_map<const RadioListener*, std::size_t> station_index_;
  // Queued frames, addressed by the handle the core holds; freed slots
  // are reused, so the store stops growing at the peak backlog.
  std::vector<Pending> frames_;
  std::vector<std::uint64_t> free_frames_;
  OnAirHook on_air_hook_;
  DropHook drop_hook_;
  obs::PacketTrace* trace_ = nullptr;  // not owned; nullptr = untraced
};

}  // namespace reshape::sim::channel
