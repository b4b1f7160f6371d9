#include "sim/simulator.h"

#include <memory>
#include <stdexcept>
#include <utility>

namespace flashflow::sim {

EventId Simulator::schedule_at(SimTime when, std::function<void()> fn) {
  if (when < now_)
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  return queue_.schedule(when, std::move(fn));
}

EventId Simulator::schedule_in(SimDuration delay, std::function<void()> fn) {
  if (delay < 0)
    throw std::invalid_argument("Simulator::schedule_in: negative delay");
  return queue_.schedule(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_every(SimDuration interval,
                                  std::function<bool()> fn) {
  if (interval <= 0)
    throw std::invalid_argument("Simulator::schedule_every: interval <= 0");
  // Each pending occurrence owns the task through the shared_ptr and, if
  // the task wants to continue, schedules a fresh copy of itself. Unlike
  // a self-referential heap closure (a shared_ptr cycle that LeakSanitizer
  // rightly flags), no object here strongly references itself, so the task
  // is freed as soon as its last pending occurrence is dispatched.
  struct Periodic {
    Simulator* sim;
    SimDuration interval;
    std::shared_ptr<std::function<bool()>> task;
    void operator()() const {
      if ((*task)()) sim->schedule_in(interval, *this);
    }
  };
  return queue_.schedule(
      now_ + interval,
      Periodic{this, interval,
               std::make_shared<std::function<bool()>>(std::move(fn))});
}

void Simulator::run_until(SimTime deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    auto ev = queue_.pop();
    now_ = ev.time;
    ev.fn();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace flashflow::sim
