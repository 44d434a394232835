// Unit tests for the discrete-event kernel and traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <type_traits>
#include <vector>

#include "sim/event_queue.h"
#include "sim/trace.h"

namespace ammb::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), RunStatus::kDrained);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTickFollowsInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CallbacksMaySchedule) {
  EventQueue q;
  std::vector<Time> times;
  q.schedule(1, [&] {
    times.push_back(q.now());
    q.schedule(5, [&] { times.push_back(q.now()); });
    q.scheduleAfter(0, [&] { times.push_back(q.now()); });  // same tick
  });
  q.run();
  EXPECT_EQ(times, (std::vector<Time>{1, 1, 5}));
}

TEST(EventQueue, RejectsPastAndNull) {
  EventQueue q;
  q.schedule(10, [] {});
  q.run();
  EXPECT_THROW(q.schedule(5, [] {}), Error);
  EXPECT_THROW(q.schedule(20, nullptr), Error);
  EXPECT_THROW(q.scheduleAfter(-1, [] {}), Error);
  // A null function pointer is rejected at schedule time, not when the
  // event fires.
  void (*nullFp)() = nullptr;
  EXPECT_THROW(q.schedule(20, nullFp), Error);
  // Only trivially copyable callables convert: a std::function, which
  // may own anything, does not compile.
  static_assert(std::is_constructible_v<EventFn, void (*)()>);
  static_assert(!std::is_constructible_v<EventFn, std::function<void()>>);
}

TEST(EventQueue, Cancel) {
  EventQueue q;
  int hits = 0;
  const EventHandle h = q.schedule(10, [&] { ++hits; });
  q.schedule(20, [&] { ++hits; });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));      // double cancel
  EXPECT_FALSE(q.cancel(99999));  // unknown handle
  q.run();
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, PendingCountExcludesCancelled) {
  // Regression: the seed kernel used lazy tombstones, so cancelled
  // events were still reported as pending until reaped by run().
  EventQueue q;
  const EventHandle a = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.schedule(30, [] {});
  EXPECT_EQ(q.pendingCount(), 3u);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(q.pendingCount(), 2u);
  q.run();
  EXPECT_EQ(q.pendingCount(), 0u);
  EXPECT_EQ(q.processedCount(), 2u);
}

TEST(EventQueue, CancelAfterExecutionFails) {
  EventQueue q;
  const EventHandle h = q.schedule(5, [] {});
  q.run();
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, StaleHandleDoesNotCancelReusedSlot) {
  EventQueue q;
  int hits = 0;
  const EventHandle a = q.schedule(10, [&] { ++hits; });
  EXPECT_TRUE(q.cancel(a));
  // The pooled slot is reused by the next schedule; the stale handle
  // must not be able to cancel the new occupant.
  const EventHandle b = q.schedule(12, [&] { hits += 10; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.cancel(a));
  q.run();
  EXPECT_EQ(hits, 10);
}

TEST(EventQueue, CancelFromInsideCallback) {
  EventQueue q;
  int hits = 0;
  const EventHandle later = q.schedule(20, [&] { ++hits; });
  q.schedule(10, [&] { EXPECT_TRUE(q.cancel(later)); });
  EXPECT_EQ(q.run(), RunStatus::kDrained);
  EXPECT_EQ(hits, 0);
}

TEST(EventQueue, CancelMiddleKeepsOrder) {
  // Removing an interior heap entry must not disturb (time, insertion)
  // execution order of the survivors.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 32; ++i) {
    handles.push_back(
        q.schedule(100 - 3 * (i % 7), [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 32; i += 3) EXPECT_TRUE(q.cancel(handles[i]));
  q.run();
  std::vector<int> expected;
  for (int i = 0; i < 32; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  std::sort(expected.begin(), expected.end(), [](int a, int b) {
    const int ta = 100 - 3 * (a % 7), tb = 100 - 3 * (b % 7);
    if (ta != tb) return ta < tb;
    return a < b;
  });
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, SlotPoolReusesCapacity) {
  // Steady-state churn must recycle slots instead of growing the pool.
  EventQueue q;
  struct Chain {
    EventQueue* q;
    void operator()() const {
      if (q->now() < 1000) q->scheduleAfter(1, *this);
    }
  };
  q.schedule(0, Chain{&q});
  q.run();
  EXPECT_EQ(q.processedCount(), 1001u);
  EXPECT_LE(q.slotCapacity(), 4u);
}

TEST(EventQueue, TimeLimitStopsBeforeLaterEvents) {
  EventQueue q;
  int hits = 0;
  q.schedule(10, [&] { ++hits; });
  q.schedule(50, [&] { ++hits; });
  EXPECT_EQ(q.run(20), RunStatus::kTimeLimit);
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(q.pendingCount(), 1u);
  EXPECT_EQ(q.run(), RunStatus::kDrained);
  EXPECT_EQ(hits, 2);
}

TEST(EventQueue, EventAtLimitStillRuns) {
  EventQueue q;
  int hits = 0;
  q.schedule(20, [&] { ++hits; });
  EXPECT_EQ(q.run(20), RunStatus::kDrained);
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, RequestStop) {
  EventQueue q;
  int hits = 0;
  q.schedule(1, [&] {
    ++hits;
    q.requestStop();
  });
  q.schedule(2, [&] { ++hits; });
  EXPECT_EQ(q.run(), RunStatus::kStopped);
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, EventLimit) {
  EventQueue q;
  // A self-perpetuating chain is cut by the safety cap.
  struct Loop {
    EventQueue* q;
    void operator()() const { q->scheduleAfter(1, *this); }
  };
  q.schedule(0, Loop{&q});
  EXPECT_EQ(q.run(kTimeNever, 100), RunStatus::kEventLimit);
  EXPECT_EQ(q.processedCount(), 100u);
}

TEST(Trace, RecordsAndDisable) {
  Trace on(true);
  on.add({3, TraceKind::kBcast, 1, 7, kNoMsg});
  EXPECT_EQ(on.size(), 1u);
  EXPECT_EQ(on.records()[0].instance, 7);

  Trace off(false);
  off.add({3, TraceKind::kBcast, 1, 7, kNoMsg});
  EXPECT_EQ(off.size(), 0u);
}

TEST(Trace, ToStringMentionsFields) {
  const TraceRecord rec{42, TraceKind::kDeliver, 3, kNoInstance, 9};
  const std::string s = toString(rec);
  EXPECT_NE(s.find("t=42"), std::string::npos);
  EXPECT_NE(s.find("deliver"), std::string::npos);
  EXPECT_NE(s.find("msg=9"), std::string::npos);
}

}  // namespace
}  // namespace ammb::sim
