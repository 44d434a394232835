// Unit tests for the discrete-event kernel and traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/trace.h"

namespace ammb::sim {
namespace {

/// A queue whose events run closures: each event's payload is its
/// closure's index in a deque, which keeps a running closure in place
/// while it schedules more.
class ClosureQueue : public EventQueue {
 public:
  EventHandle schedule(Time at, std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    const auto index = static_cast<std::int64_t>(fns_.size() - 1);
    return EventQueue::schedule(at, Event{0, kNoNode, index});
  }
  RunStatus run(Time timeLimit = kTimeNever,
                std::uint64_t maxEvents = 250'000'000) {
    return EventQueue::run(
        [this](const Event& e) { fns_[static_cast<std::size_t>(e.payload)](); },
        timeLimit, maxEvents);
  }

 private:
  std::deque<std::function<void()>> fns_;
};

TEST(EventQueue, RunsInTimeOrder) {
  ClosureQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), RunStatus::kDrained);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTickFollowsInsertionOrder) {
  ClosureQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CallbacksMaySchedule) {
  ClosureQueue q;
  std::vector<Time> times;
  q.schedule(1, [&] {
    times.push_back(q.now());
    q.schedule(5, [&] { times.push_back(q.now()); });
    q.schedule(q.now(), [&] { times.push_back(q.now()); });  // same tick
  });
  q.run();
  EXPECT_EQ(times, (std::vector<Time>{1, 1, 5}));
}

TEST(EventQueue, RejectsPast) {
  ClosureQueue q;
  q.schedule(10, [] {});
  q.run();
  EXPECT_THROW(q.schedule(5, [] {}), Error);
}

TEST(EventQueue, HandsBackEachEventVerbatim) {
  // The queue gives no field a meaning, so every extreme must come back
  // field for field: the engine's epoch events carry kNoNode, and its
  // instance and timer ids are 64-bit.  One copy of each goes straight
  // into the wheel from t = 0 (at 5) and from t = 900 (at 1000); one goes
  // into the heap from t = 0 (at 1000), so it runs ahead of the second.
  using Got = std::tuple<Time, int, NodeId, std::int64_t>;
  std::vector<Event> events;
  for (const std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{255}}) {
    for (const NodeId node : {kNoNode, std::numeric_limits<NodeId>::max()}) {
      for (const std::int64_t payload :
           {std::numeric_limits<std::int64_t>::min(), std::int64_t{-1},
            std::numeric_limits<std::int64_t>::max()}) {
        events.push_back(Event{kind, node, payload});
      }
    }
  }
  EventQueue q;
  std::vector<Got> got;
  const auto note = [&](const Event& e) {
    got.emplace_back(q.now(), e.kind, e.node, e.payload);
  };
  std::vector<Got> expected;
  const auto expect = [&](Time at) {
    for (const Event& e : events) {
      expected.emplace_back(at, e.kind, e.node, e.payload);
    }
  };
  for (const Event& e : events) q.schedule(1000, e);  // the heap
  for (const Event& e : events) q.schedule(5, e);     // the wheel
  q.schedule(900, Event{7, 3, 9});
  expect(5);
  expected.emplace_back(900, 7, 3, 9);
  EXPECT_EQ(q.run(note, 900), RunStatus::kTimeLimit);
  for (const Event& e : events) q.schedule(1000, e);  // the wheel
  expect(1000);
  expect(1000);
  EXPECT_EQ(q.run(note), RunStatus::kDrained);
  EXPECT_EQ(got, expected);
}

TEST(EventQueue, Cancel) {
  ClosureQueue q;
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
  ClosureQueue q;
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
  ClosureQueue q;
  const EventHandle h = q.schedule(5, [] {});
  q.run();
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, StaleHandleDoesNotCancelReusedSlot) {
  ClosureQueue q;
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
  ClosureQueue q;
  int hits = 0;
  const EventHandle later = q.schedule(20, [&] { ++hits; });
  q.schedule(10, [&] { EXPECT_TRUE(q.cancel(later)); });
  EXPECT_EQ(q.run(), RunStatus::kDrained);
  EXPECT_EQ(hits, 0);
}

TEST(EventQueue, CancelMiddleKeepsOrder) {
  // Removing an interior heap entry must not disturb (time, insertion)
  // execution order of the survivors.
  ClosureQueue q;
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
  ClosureQueue q;
  std::function<void()> chain = [&] {
    if (q.now() < 1000) q.schedule(q.now() + 1, chain);
  };
  q.schedule(0, chain);
  q.run();
  EXPECT_EQ(q.processedCount(), 1001u);
  EXPECT_LE(q.slotCapacity(), 4u);
}

TEST(EventQueue, TimeLimitStopsBeforeLaterEvents) {
  ClosureQueue q;
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
  ClosureQueue q;
  int hits = 0;
  q.schedule(20, [&] { ++hits; });
  EXPECT_EQ(q.run(20), RunStatus::kDrained);
  EXPECT_EQ(hits, 1);
}

TEST(EventQueue, RequestStop) {
  ClosureQueue q;
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
  ClosureQueue q;
  // A self-perpetuating chain is cut by the safety cap.
  std::function<void()> loop = [&] { q.schedule(q.now() + 1, loop); };
  q.schedule(0, loop);
  EXPECT_EQ(q.run(kTimeNever, 100), RunStatus::kEventLimit);
  EXPECT_EQ(q.processedCount(), 100u);
}

TEST(EventQueue, StopRequestedOutsideARunIsCleared) {
  // run() drops a stop asked for before it starts; a stop asked for by
  // an event leaves the rest pending for the next run.
  EventQueue q;
  std::vector<std::int64_t> ran;
  const auto dispatch = [&](const Event& e) {
    ran.push_back(e.payload);
    if (e.payload == 1) q.requestStop();
  };
  q.schedule(1, Event{0, kNoNode, 1});
  q.schedule(2, Event{0, kNoNode, 2});
  q.requestStop();
  EXPECT_EQ(q.run(dispatch), RunStatus::kStopped);
  EXPECT_EQ(ran, (std::vector<std::int64_t>{1}));
  EXPECT_EQ(q.now(), 1);
  EXPECT_EQ(q.pendingCount(), 1u);
  EXPECT_EQ(q.run(dispatch), RunStatus::kDrained);
  EXPECT_EQ(ran, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(q.now(), 2);
}

TEST(EventQueue, RunChecksStopThenDrainThenTimeThenEventLimit) {
  // When several reasons to end a run hold at once, the first in that
  // order names the status.
  EventQueue q;
  int dispatched = 0;
  const auto count = [&](const Event&) { ++dispatched; };
  // The last event's stop outranks the drain.
  q.schedule(3, Event{});
  EXPECT_EQ(q.run([&](const Event& e) {
              count(e);
              q.requestStop();
            }),
            RunStatus::kStopped);
  EXPECT_EQ(q.pendingCount(), 0u);
  // An empty queue drains whatever its limits.
  EXPECT_EQ(q.run(count, 0, 0), RunStatus::kDrained);
  // An event past the time limit outranks a spent event budget.
  q.schedule(10, Event{});
  EXPECT_EQ(q.run(count, 9, 0), RunStatus::kTimeLimit);
  // Inside the time limit, a zero budget dispatches nothing and leaves
  // now() where it was.
  EXPECT_EQ(q.run(count, 10, 0), RunStatus::kEventLimit);
  EXPECT_EQ(q.now(), 3);
  EXPECT_EQ(dispatched, 1);
  EXPECT_EQ(q.pendingCount(), 1u);
  // A budget spent on the last event still drains.
  EXPECT_EQ(q.run(count, 10, 1), RunStatus::kDrained);
  EXPECT_EQ(dispatched, 2);
  EXPECT_EQ(q.now(), 10);
}

TEST(EventQueue, DispatchFindsItsOwnEventRetired) {
  // By the time an event is dispatched, it is counted as processed and
  // its slot is free: its handle cancels nothing, before or after a
  // follow-up reuses the slot.  The delays grow past the wheel's
  // horizon, so the chain runs through the heap too.
  EventQueue q;
  std::vector<EventHandle> handles;
  handles.push_back(q.schedule(0, Event{0, kNoNode, 0}));
  const RunStatus status = q.run([&](const Event& e) {
    const auto id = static_cast<std::size_t>(e.payload);
    EXPECT_FALSE(q.cancel(handles[id])) << id;
    EXPECT_EQ(q.pendingCount(), 0u) << id;
    EXPECT_EQ(q.processedCount(), id + 1) << id;
    if (id == 300) return;
    handles.push_back(q.schedule(q.now() + e.payload,
                                 Event{0, kNoNode, e.payload + 1}));
    EXPECT_FALSE(q.cancel(handles[id])) << id;
  });
  EXPECT_EQ(status, RunStatus::kDrained);
  EXPECT_EQ(handles.size(), 301u);
  EXPECT_EQ(q.now(), 300 * 299 / 2);
  EXPECT_EQ(q.slotCapacity(), 1u);
}

// --- the time wheel's horizon -------------------------------------------------

static_assert(EventQueue::kWheelTicks == 256,
              "the horizon tests below are laid out for a 256-tick wheel");

TEST(EventQueue, HorizonKeepsInsertionOrder) {
  // Three events for t = 300 go in at different times.  A (at t = 0) and
  // C (at t = 44, exactly 256 ahead) wait in the heap; B (at t = 100)
  // goes straight into the wheel.  They run in insertion order, so the
  // heap's two must reach their bucket before B does.
  ClosureQueue q;
  std::vector<std::pair<char, Time>> ran;
  const auto note = [&](char name) { ran.emplace_back(name, q.now()); };
  q.schedule(300, [&] { note('A'); });
  q.schedule(44, [&] { q.schedule(300, [&] { note('C'); }); });
  q.schedule(100, [&] {
    q.schedule(300, [&] { note('B'); });
    q.schedule(355, [&] { note('D'); });  // 255 ahead: the wheel's far end
  });
  EXPECT_EQ(q.run(), RunStatus::kDrained);
  EXPECT_EQ(ran, (std::vector<std::pair<char, Time>>{
                     {'A', 300}, {'C', 300}, {'B', 300}, {'D', 355}}));
}

TEST(EventQueue, TimeLimitBeforeAMigrationLeavesNowAlone) {
  // The limit stops the run before it advances to 600, so nothing may
  // move 600 into the wheel yet: 10's horizon still ends at 266.
  ClosureQueue q;
  std::vector<Time> ran;
  const auto note = [&] { ran.push_back(q.now()); };
  q.schedule(10, [&] { note(); });
  q.schedule(600, [&] { note(); });
  EXPECT_EQ(q.run(300), RunStatus::kTimeLimit);
  EXPECT_EQ(q.now(), 10);
  EXPECT_EQ(q.pendingCount(), 1u);
  q.schedule(265, [&] { note(); });  // inside the horizon
  q.schedule(301, [&] { note(); });  // beyond it
  EXPECT_EQ(q.pendingCount(), 3u);
  EXPECT_EQ(q.run(), RunStatus::kDrained);
  EXPECT_EQ(ran, (std::vector<Time>{10, 265, 301, 600}));
}

TEST(EventQueue, CancelsOnBothSidesOfTheHorizon) {
  ClosureQueue q;
  std::vector<int> ran;
  std::vector<EventHandle> h;
  const auto add = [&](Time at) {
    const int id = static_cast<int>(h.size());
    h.push_back(q.schedule(at, [&ran, id] { ran.push_back(id); }));
  };
  for (int i = 0; i < 5; ++i) add(10);    // 0..4: one bucket
  for (int i = 0; i < 3; ++i) add(1000);  // 5..7: the heap
  add(20);                                // 8: alone in its bucket
  std::size_t pending = 9;
  EXPECT_EQ(q.pendingCount(), pending);
  // The bucket's head, tail and a middle entry, a heap event, and the
  // lone entry that leaves its bucket empty.
  for (int id : {0, 4, 2, 6, 8}) {
    EXPECT_TRUE(q.cancel(h[static_cast<std::size_t>(id)])) << id;
    EXPECT_EQ(q.pendingCount(), --pending) << id;
    EXPECT_FALSE(q.cancel(h[static_cast<std::size_t>(id)])) << id;
    EXPECT_EQ(q.pendingCount(), pending) << id;
  }
  add(10);  // 9: lines up behind the bucket's new tail, 3
  EXPECT_EQ(q.run(), RunStatus::kDrained);
  EXPECT_EQ(ran, (std::vector<int>{1, 3, 9, 5, 7}));
  EXPECT_EQ(q.now(), 1000);
  for (EventHandle handle : h) EXPECT_FALSE(q.cancel(handle));
}

/// One side of the differential test below: a queue running a random
/// workload.  Events are named by the order they were scheduled in.
/// Each event logs itself, schedules up to two follow-ups (none once
/// kMaxIds events exist, so a drain ends) and cancels a random earlier
/// event, live or stale; its choices come from its id alone, so two
/// sides make the same ones while they run the same events in the same
/// order.
class DifferentialSide {
 public:
  virtual ~DifferentialSide() = default;
  virtual RunStatus run(Time timeLimit, std::uint64_t maxEvents) = 0;
  virtual Time now() const = 0;
  virtual std::size_t pending() const = 0;

  static constexpr std::uint32_t kMaxIds = 12'000;

  /// A delay from each side of the wheel's edges and beyond.
  static Time drawDelay(Rng& rng) {
    switch (rng.uniformInt(0, 5)) {
      case 0: return rng.uniformInt(0, 3);
      case 1: return rng.uniformInt(31, 33);
      case 2: return rng.uniformInt(254, 258);
      case 3: return rng.uniformInt(511, 513);
      case 4: return 4096;
      default: return 100'000;
    }
  }

  void add(Time at) { scheduleId(at, nextId_++); }
  void cancel(std::uint32_t id) { cancels_.push_back(cancelId(id)); }

  void fire(std::uint32_t id) {
    ran_.push_back(id);
    Rng rng(0x9e3779b97f4a7c15ull * (id + 1));
    const auto followUps = (rng.uniformInt(0, 3) + 1) / 2;  // 0, 1, 1, 2
    for (std::int64_t k = 0; k < followUps && nextId_ < kMaxIds; ++k) {
      add(now() + drawDelay(rng));
    }
    if (rng.bernoulli(0.4)) {
      // Half the targets are recent, so many are still pending.
      const std::int64_t newest = std::int64_t{nextId_} - 1;
      const std::int64_t oldest =
          rng.bernoulli(0.5) ? 0 : std::max<std::int64_t>(0, newest - 63);
      cancel(static_cast<std::uint32_t>(rng.uniformInt(oldest, newest)));
    }
  }

  std::uint32_t nextId() const { return nextId_; }
  const std::vector<std::uint32_t>& ran() const { return ran_; }
  const std::vector<bool>& cancels() const { return cancels_; }
  std::size_t operations() const {
    return ran_.size() + cancels_.size() + nextId_;
  }

 protected:
  virtual void scheduleId(Time at, std::uint32_t id) = 0;
  virtual bool cancelId(std::uint32_t id) = 0;

 private:
  std::uint32_t nextId_ = 0;
  std::vector<std::uint32_t> ran_;
  std::vector<bool> cancels_;
};

/// The event queue, with each event's id as its payload.
class WheelSide : public DifferentialSide {
 public:
  RunStatus run(Time timeLimit, std::uint64_t maxEvents) override {
    return q_.run(
        [this](const Event& e) { fire(static_cast<std::uint32_t>(e.payload)); },
        timeLimit, maxEvents);
  }
  Time now() const override { return q_.now(); }
  std::size_t pending() const override { return q_.pendingCount(); }

 protected:
  void scheduleId(Time at, std::uint32_t id) override {
    handles_.push_back(q_.schedule(at, Event{0, kNoNode, id}));
  }
  bool cancelId(std::uint32_t id) override { return q_.cancel(handles_[id]); }

 private:
  EventQueue q_;
  std::vector<EventHandle> handles_;
};

/// (time, seq, id) in a std::set, with run()'s limit contract.
class ReferenceSide : public DifferentialSide {
 public:
  RunStatus run(Time timeLimit, std::uint64_t maxEvents) override {
    std::uint64_t executed = 0;
    while (!pending_.empty()) {
      const Key top = *pending_.begin();
      if (std::get<0>(top) > timeLimit) return RunStatus::kTimeLimit;
      if (executed >= maxEvents) return RunStatus::kEventLimit;
      pending_.erase(pending_.begin());
      keys_[std::get<2>(top)].reset();
      now_ = std::get<0>(top);
      ++executed;
      fire(std::get<2>(top));
    }
    return RunStatus::kDrained;
  }
  Time now() const override { return now_; }
  std::size_t pending() const override { return pending_.size(); }

 protected:
  void scheduleId(Time at, std::uint32_t id) override {
    const Key key{at, seq_++, id};
    pending_.insert(key);
    keys_.emplace_back(key);
  }
  bool cancelId(std::uint32_t id) override {
    if (!keys_[id].has_value()) return false;
    pending_.erase(*keys_[id]);
    keys_[id].reset();
    return true;
  }

 private:
  using Key = std::tuple<Time, std::uint64_t, std::uint32_t>;
  std::set<Key> pending_;
  std::vector<std::optional<Key>> keys_;
  std::uint64_t seq_ = 0;
  Time now_ = 0;
};

TEST(EventQueue, MatchesAReferenceQueue) {
  WheelSide wheel;
  ReferenceSide reference;
  DifferentialSide* const sides[] = {&wheel, &reference};
  Rng rng(20261019);
  constexpr Time kLimitSteps[] = {0, 1, 3, 32, 255, 256, 257, 600, 4096,
                                  100'000};
  int chunk = 0;
  while (wheel.operations() < 20'000) {
    // Between chunks, from outside run(): fresh events, and a cancel.
    const auto fresh = rng.uniformInt(0, wheel.pending() < 50 ? 30 : 6);
    for (std::int64_t k = 0; k < fresh; ++k) {
      const Time at = wheel.now() + DifferentialSide::drawDelay(rng);
      for (DifferentialSide* side : sides) side->add(at);
    }
    if (rng.bernoulli(0.5)) {
      const auto id =
          static_cast<std::uint32_t>(rng.uniformInt(0, wheel.nextId() - 1));
      for (DifferentialSide* side : sides) side->cancel(id);
    }
    const Time limit =
        rng.bernoulli(0.1)
            ? kTimeNever
            : wheel.now() + kLimitSteps[rng.uniformInt(0, 9)];
    const auto maxEvents = static_cast<std::uint64_t>(rng.uniformInt(0, 300));
    const RunStatus status = wheel.run(limit, maxEvents);
    ASSERT_EQ(status, reference.run(limit, maxEvents)) << "chunk " << chunk;
    ASSERT_EQ(wheel.ran(), reference.ran()) << "chunk " << chunk;
    ASSERT_EQ(wheel.cancels(), reference.cancels()) << "chunk " << chunk;
    ASSERT_EQ(wheel.now(), reference.now()) << "chunk " << chunk;
    ASSERT_EQ(wheel.pending(), reference.pending()) << "chunk " << chunk;
    ++chunk;
  }
  EXPECT_EQ(wheel.run(kTimeNever, ~0ull), RunStatus::kDrained);
  EXPECT_EQ(reference.run(kTimeNever, ~0ull), RunStatus::kDrained);
  EXPECT_EQ(wheel.ran(), reference.ran());
  EXPECT_EQ(wheel.now(), reference.now());
  EXPECT_EQ(wheel.pending(), 0u);
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
