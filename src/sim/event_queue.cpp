#include "sim/event_queue.h"

#include <cmath>
#include <stdexcept>

#include "check/check.h"

namespace vcopt::sim {

EventId EventQueue::schedule(double time, Callback cb) {
  // A NaN compares false against everything and would break the heap order.
  if (!std::isfinite(time)) {
    throw std::invalid_argument("EventQueue::schedule: non-finite time");
  }
  if (time < now_) {
    throw std::invalid_argument("EventQueue::schedule: time in the past");
  }
  const EventId id = next_id_++;
  heap_.push(Entry{time, id});
  callbacks_.emplace(id, std::move(cb));
  return id;
}

void EventQueue::cancel(EventId id) {
  if (callbacks_.count(id)) {
    cancelled_.insert(id);
    callbacks_.erase(id);
  }
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    const Entry e = heap_.top();
    heap_.pop();
    if (cancelled_.erase(e.id)) continue;  // lazily dropped
    auto it = callbacks_.find(e.id);
    if (it == callbacks_.end()) continue;
    Callback cb = std::move(it->second);
    callbacks_.erase(it);
    // Simulated time is monotone: the heap can never surface an event from
    // the past (schedule() rejects them), so firing order == time order.
    VCOPT_INVARIANT(e.time >= now_)
        << " event " << e.id << " fires at " << e.time
        << " but the clock is already at " << now_;
    now_ = e.time;
    cb();
    return true;
  }
  return false;
}

std::size_t EventQueue::run() {
  std::size_t count = 0;
  while (step()) ++count;
  return count;
}

std::size_t EventQueue::run_until(double t) {
  std::size_t count = 0;
  while (!heap_.empty()) {
    const Entry e = heap_.top();
    if (cancelled_.count(e.id)) {
      heap_.pop();
      cancelled_.erase(e.id);
      continue;
    }
    if (e.time > t) break;
    step();
    ++count;
  }
  if (now_ < t) now_ = t;
  return count;
}

}  // namespace vcopt::sim
