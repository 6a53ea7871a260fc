#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace reshape::sim {

void EventQueue::push(util::TimePoint when, Callback callback) {
  util::require(static_cast<bool>(callback),
                "EventQueue::push: callback must be callable");
  heap_.push_back(Entry{when.count_us(), next_sequence_++, std::move(callback)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::TimerId EventQueue::add_timer(Callback callback) {
  util::require(static_cast<bool>(callback),
                "EventQueue::add_timer: callback must be callable");
  timers_.push_back(Entry{0, kUnarmed, std::move(callback)});
  return timers_.size() - 1;
}

void EventQueue::arm(TimerId timer, util::TimePoint when) {
  disarm(timer);
  timers_[timer].when_us = when.count_us();
  timers_[timer].sequence = next_sequence_++;
  ++armed_;
}

void EventQueue::disarm(TimerId timer) {
  armed_ -= std::exchange(timers_.at(timer).sequence, kUnarmed) != kUnarmed;
}

EventQueue::TimerId EventQueue::due_timer() const {
  const Entry* next = heap_.empty() ? nullptr : &heap_.front();
  TimerId due = timers_.size();
  for (TimerId i = 0; armed_ != 0 && i < timers_.size(); ++i) {
    if (timers_[i].sequence != kUnarmed &&
        (next == nullptr || Later{}(*next, timers_[i]))) {
      next = &timers_[i];
      due = i;
    }
  }
  return due;
}

util::TimePoint EventQueue::next_time() const {
  util::require(!empty(), "EventQueue::next_time: queue is empty");
  const TimerId due = due_timer();
  return util::TimePoint::from_microseconds(
      (due != timers_.size() ? timers_[due] : heap_.front()).when_us);
}

void EventQueue::dispatch_next() {
  util::require(!empty(), "EventQueue::dispatch_next: queue is empty");
  if (const TimerId due = due_timer(); due != timers_.size()) {
    disarm(due);
    timers_[due].callback();
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  // Take the callback off the heap before invoking it: it may push.
  const Callback callback = std::move(heap_.back().callback);
  heap_.pop_back();
  callback();
}

}  // namespace reshape::sim
