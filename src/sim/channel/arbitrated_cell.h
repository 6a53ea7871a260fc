// One arbitrated DCF cell driven from releases known up front.
//
// The contended-cell scenarios (runtime/scenario.cc) and the tuner's
// access-delay measurement (core/tuning/evaluator.cc) both replay a run's
// frames through one ChannelArbiter. ArbitratedCell does it for both. It
// owns the simulator, a medium with no listeners (so positions and RSSI
// never matter), the arbiter, the station identities and the
// sim::ReleaseChains that fire every release at its time, in the order
// preloading them all would. Callers add releases, then run() reports
// every frame that reaches the air by the index release() returned;
// frames dropped at the retry limit are not reported.
//
// The arbiter keys per-station queues and backoff substreams on first
// transmission order, so a station registers with the arbiter when its
// first release fires; after that its frames enqueue by station index,
// with no identity lookup. Each frame carries its release index + 1 as
// its lifecycle-trace id (mac::Frame::trace_id), which is how the on-air
// hook maps a frame back to its release.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "mac/frame.h"
#include "sim/channel/channel_arbiter.h"
#include "sim/event_queue.h"
#include "sim/medium.h"
#include "sim/release_chains.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/time.h"

namespace reshape::sim::channel {

class ArbitratedCell final : private EventHandler {
 public:
  /// A frame went on the air: `frame` as broadcast (timestamp = the
  /// on-air instant) and its enqueue -> on-air delay.
  using OnAir = std::function<void(std::size_t release, const mac::Frame& frame,
                                   util::Duration access_delay)>;

  /// `rng` seeds the arbiter's per-station backoff substreams.
  ArbitratedCell(DcfParams params, util::Rng rng);
  ArbitratedCell(const ArbitratedCell&) = delete;  // the simulator holds it
  ArbitratedCell& operator=(const ArbitratedCell&) = delete;

  /// Appends a release of `size_bytes` by station `station` (any index;
  /// stations are numbered by the caller) at `when`, in preload order
  /// (ties at one instant fire in add order); returns its index.
  std::size_t release(std::size_t station, util::TimePoint when,
                      std::uint32_t size_bytes);

  [[nodiscard]] std::size_t releases() const { return sizes_.size(); }

  /// The cell's arbiter, for observation hooks (set_windowed) before run().
  [[nodiscard]] ChannelArbiter& arbiter() { return arbiter_; }

  /// Runs every release through the cell, calling `on_air` for each frame
  /// that reaches the air, in channel order. Call once.
  void run(OnAir on_air);

 private:
  static constexpr int kChannel = 1;
  static constexpr std::size_t kUnregistered = static_cast<std::size_t>(-1);
  struct Station final : RadioListener {
    void on_frame(const mac::Frame&, double) override {}
    std::size_t arbiter_index = kUnregistered;
  };

  /// Fires release `release` of `station`: enqueues its frame.
  void on_event(std::uint64_t station, std::uint64_t release) override;

  Simulator simulator_;
  Medium medium_;
  ChannelArbiter arbiter_;
  ReleaseChains chains_{simulator_, *this};
  std::vector<Station> stations_;     // fixed once run() starts
  std::vector<std::uint32_t> sizes_;  // per release
  OnAir on_air_;
};

}  // namespace reshape::sim::channel
