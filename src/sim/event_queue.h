// Discrete-event simulation core: a time-ordered queue of callbacks with
// stable FIFO ordering for simultaneous events and O(log n) lazy
// cancellation.  Time is simulated seconds (double).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace vcopt::sim {

using EventId = std::uint64_t;

class EventQueue {
 public:
  using Callback = std::function<void()>;

  double now() const { return now_; }

  /// Schedules `cb` at absolute simulated time `time` (finite, >= now).
  /// Events with equal time run in scheduling order.  Throws
  /// std::invalid_argument for a time in the past or a non-finite time.
  EventId schedule(double time, Callback cb);

  /// Schedules `cb` `delay` seconds from now.
  EventId schedule_in(double delay, Callback cb) {
    return schedule(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event.  Cancelling an already-fired or unknown id is
  /// a no-op (lazy deletion).
  void cancel(EventId id);

  /// Runs the earliest pending event.  Returns false when the queue is empty.
  bool step();

  /// Runs events until the queue drains.  Returns the number of events run.
  std::size_t run();

  /// Runs events with time <= `t`, then advances the clock to exactly `t`.
  std::size_t run_until(double t);

  std::size_t pending() const { return callbacks_.size(); }
  bool empty() const { return pending() == 0; }

 private:
  struct Entry {
    double time;
    EventId id;
    bool operator>(const Entry& o) const {
      if (time != o.time) return time > o.time;
      return id > o.id;  // ids are issued monotonically -> FIFO among ties
    }
  };

  double now_ = 0;
  EventId next_id_ = 1;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  // Lookup-only (erase/find/count): never iterated, so the hash order can
  // never leak into event order, the journal, or any replayed output.
  std::unordered_set<EventId> cancelled_;  // NOLINT(vcopt-unordered-in-replay)
  std::unordered_map<EventId, Callback> callbacks_;  // NOLINT(vcopt-unordered-in-replay)
};

}  // namespace vcopt::sim
