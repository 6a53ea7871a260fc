#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace reshape::sim {

void EventQueue::push(util::TimePoint when, Callback callback) {
  util::require(static_cast<bool>(callback),
                "EventQueue::push: callback must be callable");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(callback);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(callback));
  }
  heap_.push_back(Entry{when.count_us(), next_sequence_++, nullptr, 0, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::push_event(util::TimePoint when, EventHandler& handler,
                            std::uint64_t a, std::uint64_t b) {
  heap_.push_back(Entry{when.count_us(), next_sequence_++, &handler, a, b});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::TimerId EventQueue::add_timer(EventHandler& handler) {
  timers_.push_back(Entry{0, kUnarmed, &handler, 0, 0});
  return timers_.size() - 1;
}

void EventQueue::arm(TimerId timer, util::TimePoint when, std::uint64_t a,
                     std::uint64_t b) {
  disarm(timer);
  timers_[timer] = Entry{when.count_us(), next_sequence_++,
                         timers_[timer].handler, a, b};
  ++armed_;
}

void EventQueue::disarm(TimerId timer) {
  armed_ -= std::exchange(timers_.at(timer).sequence, kUnarmed) != kUnarmed;
}

const EventQueue::Entry* EventQueue::due_timer() const {
  const Entry* next = heap_.empty() ? nullptr : &heap_.front();
  const Entry* due = nullptr;
  for (std::size_t i = 0; armed_ != 0 && i < timers_.size(); ++i) {
    if (timers_[i].sequence != kUnarmed &&
        (next == nullptr || Later{}(*next, timers_[i]))) {
      next = due = &timers_[i];
    }
  }
  return due;
}

util::TimePoint EventQueue::next_time() const {
  util::require(!empty(), "EventQueue::next_time: queue is empty");
  const Entry* due = due_timer();
  return util::TimePoint::from_microseconds(
      (due != nullptr ? *due : heap_.front()).when_us);
}

EventQueue::Entry EventQueue::pop_entry() {
  if (const Entry* due = due_timer()) {
    const Entry entry = *due;
    disarm(static_cast<TimerId>(due - timers_.data()));
    return entry;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry entry = heap_.back();
  heap_.pop_back();
  return entry;
}

EventQueue::Callback EventQueue::take_slot(std::uint64_t slot) {
  // Move the task out and free the slot *before* invocation, so firing
  // code that schedules new events can reuse it immediately.
  Callback task = std::move(slots_[slot]);
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  return task;
}

void EventQueue::dispatch_next() {
  util::require(!empty(), "EventQueue::dispatch_next: queue is empty");
  const Entry entry = pop_entry();
  if (entry.handler != nullptr) {
    entry.handler->on_event(entry.arg_a, entry.arg_b);
    return;
  }
  Callback task = take_slot(entry.arg_b);
  task();
}

EventQueue::Callback EventQueue::pop() {
  util::require(!empty(), "EventQueue::pop: queue is empty");
  const Entry entry = pop_entry();
  if (entry.handler != nullptr) {
    return Callback{[handler = entry.handler, a = entry.arg_a,
                     b = entry.arg_b] { handler->on_event(a, b); }};
  }
  return take_slot(entry.arg_b);
}

}  // namespace reshape::sim
