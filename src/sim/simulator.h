// The discrete-event simulation loop.
//
// Owns the clock and the event queue; entities (AP, clients, sniffer,
// hopping timers) schedule callbacks against it. Single-threaded by
// design: wireless experiments need determinism more than parallelism
// (Core Guidelines CP.1 — assume your code will run as part of a
// multi-threaded program and keep shared mutable state out of it; here we
// simply have none).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/event_queue.h"
#include "util/time.h"

namespace reshape::sim {

/// Runs events in timestamp order, advancing the simulated clock.
class Simulator {
 public:
  /// The current simulated time.
  [[nodiscard]] util::TimePoint now() const { return now_; }

  /// Schedules `callback` at absolute time `when`; `when` must not be in
  /// the simulated past.
  void schedule_at(util::TimePoint when, EventQueue::Callback callback);

  /// Schedules `callback` after the given delay (delay must be >= 0).
  void schedule_after(util::Duration delay, EventQueue::Callback callback);

  /// Schedules a typed (allocation-free) event: `handler.on_event(a, b)`
  /// fires at `when`. Same time+sequence ordering as callbacks.
  void schedule_event(util::TimePoint when, EventHandler& handler,
                      std::uint64_t a = 0, std::uint64_t b = 0);

  /// Reserves `count` consecutive event sequence numbers (see
  /// EventQueue::reserve_sequences) and returns the first.
  std::uint64_t reserve_sequences(std::size_t count);

  /// Schedules a typed event under a reserved sequence number: it fires
  /// where it would have had it been scheduled at reservation time.
  void schedule_event(util::TimePoint when, std::uint64_t sequence,
                      EventHandler& handler, std::uint64_t a = 0,
                      std::uint64_t b = 0);

  /// Runs events until the queue drains.
  void run();

  /// Runs events with timestamp <= `deadline`, then sets the clock to the
  /// deadline.
  void run_until(util::TimePoint deadline);

  /// Total callbacks executed so far.
  [[nodiscard]] std::size_t events_processed() const { return processed_; }

  [[nodiscard]] bool idle() const { return queue_.empty(); }

  /// Events currently queued.
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  EventQueue queue_;
  util::TimePoint now_;
  std::size_t processed_ = 0;
};

}  // namespace reshape::sim
