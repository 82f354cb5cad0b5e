#include "sim/event_loop.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace geotp {
namespace sim {

EventId EventLoop::Schedule(Micros delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId EventLoop::ScheduleAt(Micros when, std::function<void()> fn) {
  if (when < now_) when = now_;
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& state = slots_[slot];
  state.fn = std::move(fn);
  state.pending = true;
  ++live_;
  heap_.push_back(Entry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return static_cast<EventId>(state.generation) << 32 | slot;
}

bool EventLoop::Cancel(EventId id) {
  const auto slot = static_cast<uint32_t>(id);
  if (slot >= slots_.size()) return false;
  Slot& state = slots_[slot];
  if (!state.pending || state.generation != id >> 32) return false;
  // Lazy cancellation: the heap entry stays put and is skipped on pop.
  state.pending = false;
  --live_;
  return true;
}

std::function<void()> EventLoop::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const uint32_t slot = heap_.back().slot;
  heap_.pop_back();
  Slot& state = slots_[slot];
  std::function<void()> fn = std::move(state.fn);
  state.fn = nullptr;
  const bool fire = state.pending;
  if (fire) --live_;
  state.pending = false;
  ++state.generation;
  free_slots_.push_back(slot);
  // A cancelled callback dies only now: its captures' destructors may
  // schedule, which can reallocate slots_ under `state`.
  if (!fire) fn = nullptr;
  return fn;
}

void EventLoop::DropCancelledTop() {
  while (!heap_.empty() && !slots_[heap_.front().slot].pending) PopTop();
}

bool EventLoop::Step() {
  DropCancelledTop();
  if (heap_.empty()) return false;
  const Micros when = heap_.front().when;
  GEOTP_CHECK(when >= now_, "time went backwards");
  now_ = when;
  std::function<void()> fn = PopTop();
  ++events_processed_;
  fn();
  return true;
}

uint64_t EventLoop::Run() {
  uint64_t n = 0;
  while (Step()) ++n;
  return n;
}

uint64_t EventLoop::RunUntil(Micros until) {
  uint64_t n = 0;
  while (true) {
    DropCancelledTop();
    if (heap_.empty() || heap_.front().when > until) break;
    Step();
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

void EventLoop::Clear() {
  while (!heap_.empty()) PopTop();
}

}  // namespace sim
}  // namespace geotp
