// Tests for the virtual-time discrete-event loop.
#include "sim/event_loop.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace geotp {
namespace sim {
namespace {

TEST(EventLoopTest, StartsAtTimeZero) {
  EventLoop loop;
  EXPECT_EQ(loop.Now(), 0);
  EXPECT_TRUE(loop.Empty());
}

TEST(EventLoopTest, AdvancesToEventTime) {
  EventLoop loop;
  Micros fired_at = -1;
  loop.Schedule(1000, [&]() { fired_at = loop.Now(); });
  loop.Run();
  EXPECT_EQ(fired_at, 1000);
  EXPECT_EQ(loop.Now(), 1000);
}

TEST(EventLoopTest, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(300, [&]() { order.push_back(3); });
  loop.Schedule(100, [&]() { order.push_back(1); });
  loop.Schedule(200, [&]() { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, SameTimeIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(50, [&order, i]() { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoopTest, NestedScheduling) {
  EventLoop loop;
  Micros inner_fired = -1;
  loop.Schedule(10, [&]() {
    loop.Schedule(5, [&]() { inner_fired = loop.Now(); });
  });
  loop.Run();
  EXPECT_EQ(inner_fired, 15);
}

TEST(EventLoopTest, NegativeDelayClampsToNow) {
  EventLoop loop;
  Micros fired_at = -1;
  loop.Schedule(100, [&]() {
    loop.Schedule(-50, [&]() { fired_at = loop.Now(); });
  });
  loop.Run();
  EXPECT_EQ(fired_at, 100);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  EventId id = loop.Schedule(100, [&]() { fired = true; });
  EXPECT_TRUE(loop.Cancel(id));
  loop.Run();
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, CancelTwiceReturnsFalse) {
  EventLoop loop;
  EventId id = loop.Schedule(100, []() {});
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopTest, CancelUnknownIdIsNoop) {
  EventLoop loop;
  EXPECT_FALSE(loop.Cancel(kInvalidEvent));
  EXPECT_FALSE(loop.Cancel(9999));
}

TEST(EventLoopTest, CancelFiredEventReturnsFalse) {
  EventLoop loop;
  EventId id = loop.Schedule(10, []() {});
  loop.Run();
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopTest, RunUntilStopsAtBoundary) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(100, [&]() { fired++; });
  loop.Schedule(200, [&]() { fired++; });
  loop.Schedule(300, [&]() { fired++; });
  loop.RunUntil(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.Now(), 200);
  loop.Run();
  EXPECT_EQ(fired, 3);
}

TEST(EventLoopTest, RunUntilAdvancesTimeWithNoEvents) {
  EventLoop loop;
  loop.RunUntil(5000);
  EXPECT_EQ(loop.Now(), 5000);
}

TEST(EventLoopTest, CountsProcessedEvents) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.Schedule(i, []() {});
  loop.Run();
  EXPECT_EQ(loop.events_processed(), 7u);
}

TEST(EventLoopTest, ClearDropsPending) {
  EventLoop loop;
  bool fired = false;
  loop.Schedule(10, [&]() { fired = true; });
  loop.Clear();
  loop.Run();
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, StepRunsExactlyOne) {
  EventLoop loop;
  int fired = 0;
  loop.Schedule(1, [&]() { fired++; });
  loop.Schedule(2, [&]() { fired++; });
  EXPECT_TRUE(loop.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(loop.Step());
  EXPECT_FALSE(loop.Step());
  EXPECT_EQ(fired, 2);
}

TEST(EventLoopTest, ManyEventsStressOrdering) {
  EventLoop loop;
  Micros last = -1;
  bool monotonic = true;
  for (int i = 0; i < 10000; ++i) {
    loop.Schedule((i * 7919) % 1000, [&]() {
      if (loop.Now() < last) monotonic = false;
      last = loop.Now();
    });
  }
  loop.Run();
  EXPECT_TRUE(monotonic);
}

// The heap against a sorted model: delays with many ties, cancellations,
// and callbacks that schedule more events as they fire. Every event that
// is not cancelled fires exactly once, in (time, scheduling order).
TEST(EventLoopTest, FiringOrderMatchesSortedModel) {
  EventLoop loop;
  std::mt19937_64 rng(42);
  struct Event {
    Micros when;
    EventId id;
    bool cancelled;
  };
  std::vector<Event> events;  // by scheduling order
  std::vector<size_t> fired;
  std::function<void(int)> schedule = [&](int children) {
    for (int c = 0; c < children; ++c) {
      const auto delay = static_cast<Micros>(rng() % 40);
      const size_t n = events.size();
      const EventId id = loop.Schedule(delay, [&, n]() {
        fired.push_back(n);
        schedule(static_cast<int>(rng() % 3));
        if (rng() % 4 == 0) {
          Event& victim = events[rng() % events.size()];
          if (loop.Cancel(victim.id)) victim.cancelled = true;
        }
      });
      events.push_back(Event{loop.Now() + delay, id, false});
      if (events.size() >= 20000) return;
    }
  };
  schedule(500);
  loop.Run();

  std::vector<size_t> want;
  for (size_t n = 0; n < events.size(); ++n) {
    if (!events[n].cancelled) want.push_back(n);
  }
  std::sort(want.begin(), want.end(), [&](size_t a, size_t b) {
    return std::tie(events[a].when, a) < std::tie(events[b].when, b);
  });
  ASSERT_GT(events.size(), 5000u);
  ASSERT_GT(events.size() - want.size(), 100u);  // cancellations happened
  EXPECT_EQ(fired, want);
  EXPECT_TRUE(loop.Empty());
}

// Ids are (slot, generation) pairs and slots are recycled: an id must
// stay dead once its event fired or was cancelled, even after a new event
// took over its slot.
TEST(EventLoopTest, StaleIdAfterSlotReuseDoesNotCancel) {
  EventLoop loop;
  const EventId fired = loop.Schedule(10, []() {});
  loop.Run();
  const EventId cancelled = loop.Schedule(10, []() {});
  EXPECT_TRUE(loop.Cancel(cancelled));
  loop.Run();  // pops the cancelled entry, freeing its slot

  int runs = 0;
  const EventId fresh = loop.Schedule(10, [&]() { runs++; });
  EXPECT_NE(fresh, fired);
  EXPECT_NE(fresh, cancelled);
  EXPECT_FALSE(loop.Cancel(fired));
  EXPECT_FALSE(loop.Cancel(cancelled));
  EXPECT_FALSE(loop.Empty());
  loop.Run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(loop.Cancel(fresh));
}

TEST(EventLoopTest, CancelFromInsideFiringCallback) {
  EventLoop loop;
  bool victim_fired = false;
  EventId self = kInvalidEvent;
  EventId victim = kInvalidEvent;
  bool cancelled_victim = false;
  bool cancelled_self = true;
  self = loop.Schedule(10, [&]() {
    cancelled_victim = loop.Cancel(victim);
    cancelled_self = loop.Cancel(self);  // already firing: not pending
  });
  victim = loop.Schedule(10, [&]() { victim_fired = true; });
  EXPECT_EQ(loop.Run(), 1u);
  EXPECT_TRUE(cancelled_victim);
  EXPECT_FALSE(cancelled_self);
  EXPECT_FALSE(victim_fired);
  EXPECT_TRUE(loop.Empty());
}

TEST(EventLoopTest, ClearThenReuse) {
  EventLoop loop;
  std::vector<EventId> old_ids;
  for (int i = 0; i < 5; ++i) old_ids.push_back(loop.Schedule(i, []() {}));
  loop.Clear();
  EXPECT_TRUE(loop.Empty());
  for (EventId id : old_ids) EXPECT_FALSE(loop.Cancel(id));

  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.Schedule(5 - i, [&order, i]() { order.push_back(i); });
  }
  const EventId dropped = loop.Schedule(1, [&order]() { order.push_back(9); });
  EXPECT_TRUE(loop.Cancel(dropped));
  EXPECT_EQ(loop.Run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(EventLoopTest, EmptyCountsOnlyLiveEvents) {
  EventLoop loop;
  const EventId a = loop.Schedule(10, []() {});
  const EventId b = loop.Schedule(20, []() {});
  EXPECT_TRUE(loop.Cancel(a));
  EXPECT_FALSE(loop.Empty());  // b is still pending
  EXPECT_TRUE(loop.Cancel(b));
  EXPECT_TRUE(loop.Empty());  // two cancelled entries remain in the heap
  EXPECT_FALSE(loop.Step());
  EXPECT_EQ(loop.events_processed(), 0u);

  loop.Schedule(5, []() {});
  EXPECT_FALSE(loop.Empty());
  EXPECT_TRUE(loop.Step());
  EXPECT_TRUE(loop.Empty());
}

// A cancelled callback is destroyed when its entry surfaces; whatever it
// captured may schedule from its destructor, growing the slot table.
TEST(EventLoopTest, CancelledCallbackMayScheduleWhenDestroyed) {
  EventLoop loop;
  int fired = 0;
  {
    const std::shared_ptr<void> on_destroy(nullptr, [&](void*) {
      for (int i = 0; i < 64; ++i) loop.Schedule(1, [&fired]() { fired++; });
    });
    const EventId id = loop.Schedule(10, [on_destroy]() {});
    EXPECT_TRUE(loop.Cancel(id));
  }
  EXPECT_TRUE(loop.Empty());
  EXPECT_EQ(loop.Run(), 64u);  // popping the cancelled entry schedules 64
  EXPECT_EQ(fired, 64);
  EXPECT_TRUE(loop.Empty());
}

TEST(EventLoopTest, RunUntilSkipsCancelledHead) {
  EventLoop loop;
  int fired = 0;
  const EventId head = loop.Schedule(10, [&]() { fired += 100; });
  loop.Schedule(20, [&]() { fired++; });
  loop.Schedule(30, [&]() { fired++; });
  EXPECT_TRUE(loop.Cancel(head));
  EXPECT_EQ(loop.RunUntil(20), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(loop.Empty());
}

}  // namespace
}  // namespace sim
}  // namespace geotp
