// Pre-numbered release lists without a preloaded event heap.
//
// Arbitration callers know every frame release of a run up front (a
// station's records at their original times, a reshaper's on-air
// starts). The one such caller in src/ is sim::channel::ArbitratedCell,
// which drives the contended-cell scenarios and the tuner's access-delay
// pass. Preloading every release into the simulator makes every pop and
// push sift a heap of O(frames) entries. ReleaseChains fires the same
// list in exactly the preload's order while holding only one pending
// entry per *chain*: a maximal run of consecutive releases whose times do
// not decrease. Each release takes the sequence number the preload would
// have given it (Simulator::reserve_sequences); the first release and
// every release earlier than its predecessor head a chain and are
// scheduled at start(); firing release i schedules i+1 when its chain
// continues. Events still order by (when, sequence), and a chain's
// pending head always orders before the rest of its chain, so every
// dispatch — and every byte downstream of it — is that of the preload,
// however often the list steps back in time (one AP transmitter fed
// several clients' records does). The queue holds O(chains + live
// events) entries instead of O(frames).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace reshape::sim {

/// Fires `target.on_event(a, b)` for every added release, in preload
/// order, keeping one pending simulator entry per time-sorted chain.
/// Must outlive the simulator run it schedules into.
class ReleaseChains final : private EventHandler {
 public:
  ReleaseChains(Simulator& simulator, EventHandler& target)
      : simulator_{simulator}, target_{target} {}
  ReleaseChains(const ReleaseChains&) = delete;  // the simulator holds it
  ReleaseChains& operator=(const ReleaseChains&) = delete;

  /// Appends a release in preload order. Only before start().
  void add(util::TimePoint when, std::uint64_t a, std::uint64_t b = 0);

  /// Reserves one sequence per release, in add() order, and schedules
  /// each chain head. Call once, before running the simulator.
  void start();

 private:
  struct Release {
    std::int64_t when_us;
    std::uint64_t a;
    std::uint64_t b;
  };

  void schedule(std::size_t index);
  void on_event(std::uint64_t index, std::uint64_t) override;

  Simulator& simulator_;
  EventHandler& target_;
  std::vector<Release> releases_;
  std::uint64_t first_sequence_ = 0;
  bool started_ = false;
};

}  // namespace reshape::sim
