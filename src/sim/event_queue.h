// Deterministic event queue for the discrete-event simulator.
//
// Ties on the timestamp are broken by insertion order (a monotonically
// increasing sequence number), so identical runs replay identically —
// a requirement for the reproducibility of every table in the paper.
//
// Layout: one binary heap of (time, sequence, callback) entries, the
// earliest on top. Every event is a std::function<void()>. (Runs whose
// frame releases are all known up front skip the queue altogether:
// sim::channel::ArbitratedCell drives the DCF from a plain loop.)
//
// Timers: a re-armable callback for a caller that keeps at most one
// pending firing and moves it often (the ChannelArbiter's channel-access
// decision). arm() takes a fresh sequence number exactly as push() would
// and replaces the pending firing, so the firing orders against every
// other event as the equivalent push does, and the firings a re-arm
// replaces are never dispatched at all — where generation-stamped pushes
// would fire each as a no-op. Armed timers live beside the heap and count
// in size()/empty(); while any is armed, each dispatch scans the
// registered timers, which suits a handful (one per arbiter).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "util/time.h"

namespace reshape::sim {

/// A time-ordered queue of callbacks.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Enqueues a callback to fire at `when`.
  void push(util::TimePoint when, Callback callback);

  /// Handle of a re-armable timer; valid for the queue's lifetime.
  using TimerId = std::size_t;

  /// Registers an unarmed timer whose firing calls `callback`.
  [[nodiscard]] TimerId add_timer(Callback callback);

  /// Arms `timer` to fire at `when`, under a fresh sequence number
  /// (exactly as push), replacing any pending firing. A timer is unarmed
  /// again once it fires.
  void arm(TimerId timer, util::TimePoint when);

  /// Cancels the pending firing of `timer`, if any.
  void disarm(TimerId timer);

  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Pending events: heap entries plus armed timers.
  [[nodiscard]] std::size_t size() const { return heap_.size() + armed_; }

  /// Timestamp of the earliest pending event. Requires !empty().
  [[nodiscard]] util::TimePoint next_time() const;

  /// Removes and fires the earliest event. Requires !empty().
  void dispatch_next();

 private:
  struct Entry {
    std::int64_t when_us;
    std::uint64_t sequence;
    Callback callback;
  };

  /// Max-heap comparator under which the top is the earliest event.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when_us != b.when_us) {
        return a.when_us > b.when_us;
      }
      return a.sequence > b.sequence;
    }
  };

  /// Marks an unarmed timer's entry.
  static constexpr std::uint64_t kUnarmed = static_cast<std::uint64_t>(-1);

  /// The armed timer that fires before every heap entry, or
  /// timers_.size() when the heap's top fires first.
  [[nodiscard]] TimerId due_timer() const;

  std::vector<Entry> heap_;
  std::uint64_t next_sequence_ = 0;
  // One entry per timer, sequence kUnarmed while unarmed; a deque, so a
  // firing callback stays put when it registers another timer.
  std::deque<Entry> timers_;
  std::size_t armed_ = 0;  // armed timers
};

}  // namespace reshape::sim
