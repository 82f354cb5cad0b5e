// Single-threaded discrete-event loop with virtual time.
//
// Every component in the simulation (middlewares, geo-agents, data sources,
// client terminals) runs as callbacks on this loop. Virtual time advances
// only when the loop dequeues the next event, so a 251 ms WAN round trip
// costs nothing in wall-clock terms and runs are fully deterministic.
#ifndef GEOTP_SIM_EVENT_LOOP_H_
#define GEOTP_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "runtime/runtime.h"

namespace geotp {
namespace sim {

/// Identifies a scheduled event so it can be cancelled (e.g. a lock-wait
/// timeout that is no longer needed once the lock is granted).
using EventId = runtime::TimerId;
constexpr EventId kInvalidEvent = runtime::kInvalidTimer;

/// Min-heap driven virtual-time event loop.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO),
/// which keeps runs reproducible. Implements the runtime timer seam: in a
/// simulated deployment every actor's ITimer is this one shared loop.
class EventLoop : public runtime::ITimer {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time.
  Micros Now() const override { return now_; }

  /// Schedules `fn` to run `delay` microseconds from now (>= 0).
  EventId Schedule(Micros delay, std::function<void()> fn) override;

  /// Schedules `fn` at an absolute virtual time (clamped to >= Now()).
  EventId ScheduleAt(Micros when, std::function<void()> fn) override;

  /// Cancels a pending event. Returns true if the event existed and had not
  /// fired yet. Cancelling an already-fired or unknown id is a no-op.
  bool Cancel(EventId id) override;

  /// Runs until the queue drains. Returns the number of events processed.
  uint64_t Run();

  /// Runs events with time <= `until`; afterwards Now() == max(until, Now()).
  uint64_t RunUntil(Micros until);

  /// Runs at most one event. Returns false if the queue is empty.
  bool Step();

  bool Empty() const { return live_ == 0; }

  /// Total events processed since construction (CPU-work proxy, Fig. 6a).
  uint64_t events_processed() const { return events_processed_; }

  /// Hard stop: drops every pending event (used by experiment drivers when
  /// the measurement window closes).
  void Clear();

 private:
  // An EventId packs (generation << 32 | slot). A slot holds one pending
  // callback; its generation advances when the slot's heap entry leaves
  // the heap, fired or cancelled, so ids of fired or cancelled events go
  // stale and never match the slot's next event. Generations start at 1,
  // so no id is 0. (A stale id could only alias after 2^32 reuses of its
  // slot.)
  struct Slot {
    std::function<void()> fn;
    uint32_t generation = 1;
    bool pending = false;  ///< scheduled, not yet fired or cancelled
  };
  /// Heap entries are plain data; the callback stays in its slot, so heap
  /// sifts never move a std::function.
  struct Entry {
    Micros when;
    uint64_t seq;
    uint32_t slot;
  };
  /// Heap order: earliest first, FIFO (by seq) within one instant.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Pops cancelled entries off the top of the heap.
  void DropCancelledTop();
  /// Pops the top entry, retires its slot and returns its callback (empty
  /// if the entry was cancelled).
  std::function<void()> PopTop();

  Micros now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  std::vector<Entry> heap_;  ///< binary min-heap under Later
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t live_ = 0;  ///< pending (scheduled, not cancelled) events
};

}  // namespace sim
}  // namespace geotp

#endif  // GEOTP_SIM_EVENT_LOOP_H_
