// Discrete-event simulator: a clock plus an event queue.
//
// Components schedule callbacks; run_until() advances the clock to each
// event in order. There is no real-time element: a multi-hour "Tor day"
// simulates in milliseconds of wall time when event counts are modest.
#pragma once

#include <functional>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace flashflow::sim {

class Simulator {
 public:
  /// Current simulation time.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (must be >= now()).
  EventId schedule_at(SimTime when, std::function<void()> fn);

  /// Schedules `fn` after `delay` (must be >= 0).
  EventId schedule_in(SimDuration delay, std::function<void()> fn);

  /// Schedules `fn` every `interval`, starting at now() + interval, until it
  /// returns false. Returns the id of the first firing.
  EventId schedule_every(SimDuration interval, std::function<bool()> fn);

  /// Cancels a pending event.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the queue drains or the clock would pass `deadline`; the
  /// clock finishes exactly at `deadline` if events remain.
  void run_until(SimTime deadline);

 private:
  EventQueue queue_;
  SimTime now_ = 0;
};

}  // namespace flashflow::sim
