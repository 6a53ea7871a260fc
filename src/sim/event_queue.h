// Deterministic event queue for the discrete-event simulator.
//
// Ties on the timestamp are broken by insertion order (a monotonically
// increasing sequence number), so identical runs replay identically —
// a requirement for the reproducibility of every table in the paper.
//
// Reserved sequences: reserve_sequences(n) hands out the n numbers that n
// plain pushes at that point would have taken, and the sequenced
// push_event overload files an event under one of them later. Events are
// ordered by (when, sequence) whatever the push order, so a reserved
// event pushed late dispatches exactly where it would have had it been
// pushed at reservation time — provided it is pushed before any event
// that orders after it is dispatched. That is what lets a caller feed a
// long pre-numbered release list one time-sorted chain link at a time
// (sim::ReleaseChains) instead of preloading every entry into the heap.
//
// Timers: a re-armable typed event for a caller that keeps at most one
// pending firing and moves it often (the ChannelArbiter's channel-access
// decision). arm() takes a fresh sequence number exactly as push_event
// would and replaces the pending firing, so the firing orders against
// every other event as the equivalent push does, and the firings a
// re-arm replaces are never dispatched at all — where generation-stamped
// pushes would fire each as a no-op. Armed timers live beside the heap
// and count in size()/empty(); while any is armed, each dispatch scans
// the registered timers, which suits a handful (one per arbiter).
//
// Layout is built for dense cells (10k contending stations): the heap is
// a flat vector of 40-byte POD entries, so sift operations never move
// closures. An event is either *typed* — an EventHandler pointer plus two
// integer arguments, zero allocation (sim::ReleaseChains' release path)
// — or a *callback* parked in a slab arena of fixed-capacity inline tasks
// with free-list reuse, so steady-state scheduling stops allocating per
// frame. Oversized callables spill to the heap transparently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.h"

namespace reshape::sim {

/// A move-only callable with fixed inline storage (no allocation when the
/// callable fits; a unique_ptr box otherwise).
class InplaceTask {
 public:
  /// Sized for the largest hot-path closure: net's deferred release
  /// captures a full mac::Frame (payload vector included) plus position,
  /// lifetime token, and endpoint pointers.
  static constexpr std::size_t kCapacity = 184;

  InplaceTask() = default;

  template <typename F,
            std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InplaceTask>, int> = 0>
  InplaceTask(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = ops_for<Fn>();
    } else {
      auto boxed = [p = std::make_unique<Fn>(std::forward<F>(f))] { (*p)(); };
      using Boxed = decltype(boxed);
      static_assert(sizeof(Boxed) <= kCapacity);
      ::new (static_cast<void*>(storage_)) Boxed(std::move(boxed));
      ops_ = ops_for<Boxed>();
    }
  }

  InplaceTask(InplaceTask&& other) noexcept { move_from(other); }
  InplaceTask& operator=(InplaceTask&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InplaceTask(const InplaceTask&) = delete;
  InplaceTask& operator=(const InplaceTask&) = delete;
  ~InplaceTask() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static const Ops* ops_for() {
    static constexpr Ops kOps{
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* dst, void* src) noexcept {
          ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
          static_cast<Fn*>(src)->~Fn();
        },
        [](void* p) noexcept { static_cast<Fn*>(p)->~Fn(); },
    };
    return &kOps;
  }

  void move_from(InplaceTask& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kCapacity];
  const Ops* ops_ = nullptr;
};

/// Fixed dispatch target for typed (allocation-free) events.
class EventHandler {
 public:
  virtual void on_event(std::uint64_t a, std::uint64_t b) = 0;

 protected:
  ~EventHandler() = default;
};

/// A time-ordered queue of typed events and callbacks.
class EventQueue {
 public:
  using Callback = InplaceTask;

  /// Enqueues a callback to fire at `when`.
  void push(util::TimePoint when, Callback callback);

  /// Enqueues a typed event: `handler.on_event(a, b)` fires at `when`.
  /// POD all the way down — no arena slot, no allocation.
  void push_event(util::TimePoint when, EventHandler& handler,
                  std::uint64_t a = 0, std::uint64_t b = 0);

  /// Reserves `count` consecutive sequence numbers and returns the first;
  /// later pushes number after them.
  std::uint64_t reserve_sequences(std::size_t count);

  /// Enqueues a typed event under a sequence number handed out by
  /// reserve_sequences (throws std::invalid_argument for any other).
  /// Each reserved number is meant to be pushed at most once.
  void push_event(util::TimePoint when, std::uint64_t sequence,
                  EventHandler& handler, std::uint64_t a = 0,
                  std::uint64_t b = 0);

  /// Handle of a re-armable timer; valid for the queue's lifetime.
  using TimerId = std::size_t;

  /// Registers an unarmed timer whose firing calls `handler.on_event`.
  [[nodiscard]] TimerId add_timer(EventHandler& handler);

  /// Arms `timer` to fire `handler.on_event(a, b)` at `when`, under a
  /// fresh sequence number (exactly as push_event), replacing any pending
  /// firing. A timer is unarmed again once it fires.
  void arm(TimerId timer, util::TimePoint when, std::uint64_t a = 0,
           std::uint64_t b = 0);

  /// Cancels the pending firing of `timer`, if any.
  void disarm(TimerId timer);

  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Pending events: heap entries plus armed timers.
  [[nodiscard]] std::size_t size() const { return heap_.size() + armed_; }

  /// Timestamp of the earliest pending event. Requires !empty().
  [[nodiscard]] util::TimePoint next_time() const;

  /// Removes and fires the earliest event. Requires !empty().
  void dispatch_next();

  /// Removes and returns the earliest event as a callable (typed events
  /// are wrapped). Requires !empty().
  [[nodiscard]] Callback pop();

 private:
  struct Entry {
    std::int64_t when_us;
    std::uint64_t sequence;
    EventHandler* handler;  // nullptr: callback event, `slot` is live
    std::uint64_t arg_a;
    std::uint64_t arg_b;  // callback events store the arena slot here
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

  /// The armed timer that fires before every heap entry, or nullptr.
  [[nodiscard]] const Entry* due_timer() const;
  [[nodiscard]] Entry pop_entry();
  [[nodiscard]] Callback take_slot(std::uint64_t slot);

  std::vector<Entry> heap_;
  std::deque<InplaceTask> slots_;        // slab arena; deque = stable chunks
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_sequence_ = 0;
  // Reserved [first, end) sequence ranges, in reservation order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> reserved_;
  std::vector<Entry> timers_;  // one per timer; sequence kUnarmed if unarmed
  std::size_t armed_ = 0;      // armed timers
};

}  // namespace reshape::sim
