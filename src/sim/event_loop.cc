#include "sim/event_loop.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace geotp {
namespace sim {

EventId EventLoop::Schedule(Micros delay, std::function<void()> fn) {
  return Push(now_ + std::max<Micros>(delay, 0), fn);
}

EventId EventLoop::ScheduleAt(Micros when, std::function<void()> fn) {
  return Push(std::max(when, now_), fn);
}

EventId EventLoop::Push(Micros when, std::function<void()>& fn) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& state = slots_[slot];
  state.fn.swap(fn);  // the slot's callback is empty
  state.pending = true;
  ++live_;
  HeapPush(Entry{when, next_seq_++, slot});
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

void EventLoop::HeapPush(const Entry& entry) {
  // Sift the hole up from the new leaf.
  size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0) {
    const size_t parent = (hole - 1) / kArity;
    if (!Later{}(heap_[parent], entry)) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

uint32_t EventLoop::HeapPop() {
  const uint32_t top = heap_.front().slot;
  const Entry last = heap_.back();
  heap_.pop_back();
  const size_t size = heap_.size();
  if (size == 0) return top;
  // Sift the hole down from the root, pulling up the earliest child,
  // until `last` fits.
  size_t hole = 0;
  while (true) {
    const size_t first = hole * kArity + 1;
    if (first >= size) break;
    const size_t end = std::min(first + kArity, size);
    size_t earliest = first;
    for (size_t child = first + 1; child < end; ++child) {
      if (Later{}(heap_[earliest], heap_[child])) earliest = child;
    }
    if (!Later{}(last, heap_[earliest])) break;
    heap_[hole] = heap_[earliest];
    hole = earliest;
  }
  heap_[hole] = last;
  return top;
}

std::function<void()> EventLoop::PopTop() {
  const uint32_t slot = HeapPop();
  Slot& state = slots_[slot];
  std::function<void()> fn;
  fn.swap(state.fn);
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
