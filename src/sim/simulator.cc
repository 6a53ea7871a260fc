#include "sim/simulator.h"

#include <utility>

#include "util/check.h"

namespace reshape::sim {

void Simulator::schedule_at(util::TimePoint when,
                            EventQueue::Callback callback) {
  util::require(when >= now_, "Simulator::schedule_at: time is in the past");
  queue_.push(when, std::move(callback));
}

void Simulator::schedule_after(util::Duration delay,
                               EventQueue::Callback callback) {
  util::require(delay >= util::Duration{},
                "Simulator::schedule_after: negative delay");
  queue_.push(now_ + delay, std::move(callback));
}

void Simulator::arm_timer(EventQueue::TimerId timer, util::TimePoint when) {
  util::require(when >= now_, "Simulator::arm_timer: time is in the past");
  queue_.arm(timer, when);
}

void Simulator::run() {
  while (!queue_.empty()) {
    now_ = queue_.next_time();
    queue_.dispatch_next();
    ++processed_;
  }
}

void Simulator::run_until(util::TimePoint deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    now_ = queue_.next_time();
    queue_.dispatch_next();
    ++processed_;
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

}  // namespace reshape::sim
