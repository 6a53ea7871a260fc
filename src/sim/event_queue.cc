#include "sim/event_queue.h"

#include <algorithm>

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

std::uint64_t EventQueue::reserve_sequences(std::size_t count) {
  const std::uint64_t first = next_sequence_;
  next_sequence_ += count;
  reserved_.emplace_back(first, next_sequence_);
  return first;
}

void EventQueue::push_event(util::TimePoint when, std::uint64_t sequence,
                            EventHandler& handler, std::uint64_t a,
                            std::uint64_t b) {
  util::require(std::any_of(reserved_.begin(), reserved_.end(),
                            [sequence](const auto& range) {
                              return sequence >= range.first &&
                                     sequence < range.second;
                            }),
                "EventQueue::push_event: sequence was not reserved");
  heap_.push_back(Entry{when.count_us(), sequence, &handler, a, b});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

util::TimePoint EventQueue::next_time() const {
  util::require(!heap_.empty(), "EventQueue::next_time: queue is empty");
  return util::TimePoint::from_microseconds(heap_.front().when_us);
}

EventQueue::Entry EventQueue::pop_entry() {
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
  util::require(!heap_.empty(), "EventQueue::dispatch_next: queue is empty");
  const Entry entry = pop_entry();
  if (entry.handler != nullptr) {
    entry.handler->on_event(entry.arg_a, entry.arg_b);
    return;
  }
  Callback task = take_slot(entry.arg_b);
  task();
}

EventQueue::Callback EventQueue::pop() {
  util::require(!heap_.empty(), "EventQueue::pop: queue is empty");
  const Entry entry = pop_entry();
  if (entry.handler != nullptr) {
    return Callback{[handler = entry.handler, a = entry.arg_a,
                     b = entry.arg_b] { handler->on_event(a, b); }};
  }
  return take_slot(entry.arg_b);
}

}  // namespace reshape::sim
