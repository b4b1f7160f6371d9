// Priority event queue for the discrete-event simulator.
//
// Events fire in (time, insertion order) order, which makes simulations
// deterministic even when many events share a timestamp. Cancellation is
// O(1) amortized: cancelled entries are tombstoned and skipped on pop.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/time.h"

namespace flashflow::sim {

/// Opaque handle identifying a scheduled event; usable to cancel it.
using EventId = std::uint64_t;

/// Min-heap of timestamped callbacks with stable FIFO tie-breaking.
class EventQueue {
 public:
  /// Schedules `fn` to fire at absolute time `when`. Returns a handle that
  /// can be passed to cancel().
  EventId schedule(SimTime when, std::function<void()> fn);

  /// Cancels a pending event. Cancelling an already-fired or unknown id is a
  /// no-op (returns false).
  bool cancel(EventId id);

  /// True if no live events remain.
  bool empty() const { return live_count_ == 0; }

  /// Timestamp of the earliest live event. Requires !empty().
  SimTime next_time() const;

  /// Pops and returns the earliest live event. Requires !empty().
  struct Event {
    SimTime time = 0;
    EventId id = 0;
    std::function<void()> fn;
  };
  Event pop();

 private:
  struct Entry {
    SimTime time = 0;
    std::uint64_t seq = 0;  // insertion order; breaks timestamp ties
    EventId id = 0;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void drop_dead_entries() const;

  // heap_ and cancelled_ are mutable so that lazily dropping tombstoned
  // entries (a pure cleanup) can happen from const observers.
  mutable std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  // FFCHECK(ND06): membership tests and erase-by-id only; firing order is
  // decided by heap_'s (time, seq) ordering, never by hash order.
  mutable std::unordered_set<EventId> cancelled_;
  // Callbacks live outside the heap so Entry stays trivially copyable.
  // FFCHECK(ND06): find/erase by EventId only; never iterated, so hash
  // order cannot influence which callback fires when.
  std::unordered_map<EventId, std::function<void()>> callbacks_;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::size_t live_count_ = 0;
};

}  // namespace flashflow::sim
