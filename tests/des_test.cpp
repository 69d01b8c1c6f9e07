// Unit tests for the discrete-event engine: ordering, determinism, periodic
// scheduling, run-until semantics, handler events, queue timers and their
// cancellation, and a randomized property test of the queue against a
// std::map reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "des/simulation.hpp"

namespace topfull::des {
namespace {

TEST(SimulationTest, ProcessesEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(Seconds(3), [&]() { order.push_back(3); });
  sim.ScheduleAt(Seconds(1), [&]() { order.push_back(1); });
  sim.ScheduleAt(Seconds(2), [&]() { order.push_back(2); });
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.EventsProcessed(), 3u);
}

TEST(SimulationTest, TiesBreakByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(Seconds(1), [&order, i]() { order.push_back(i); });
  }
  sim.RunUntil(Seconds(2));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulationTest, ClockAdvancesToEventTime) {
  Simulation sim;
  SimTime seen = -1;
  sim.ScheduleAt(Millis(250), [&]() { seen = sim.Now(); });
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(seen, Millis(250));
  EXPECT_EQ(sim.Now(), Seconds(1));  // clock lands on the horizon
}

TEST(SimulationTest, RunUntilDoesNotProcessLaterEvents) {
  Simulation sim;
  bool fired = false;
  sim.ScheduleAt(Seconds(5), [&]() { fired = true; });
  sim.RunUntil(Seconds(4));
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunUntil(Seconds(6));
  EXPECT_TRUE(fired);
}

TEST(SimulationTest, ScheduleAfterIsRelative) {
  Simulation sim;
  SimTime when = 0;
  sim.ScheduleAt(Seconds(2), [&]() {
    sim.ScheduleAfter(Seconds(3), [&]() { when = sim.Now(); });
  });
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(when, Seconds(5));
}

TEST(SimulationTest, EventsScheduledDuringRunAreProcessed) {
  Simulation sim;
  int count = 0;
  std::function<void()> chain = [&]() {
    ++count;
    if (count < 5) sim.ScheduleAfter(Seconds(1), chain);
  };
  sim.ScheduleAt(0, chain);
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(count, 5);
}

TEST(SimulationTest, PeriodicFiresAtFixedCadence) {
  Simulation sim;
  std::vector<SimTime> fires;
  sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() { fires.push_back(sim.Now()); });
  sim.RunUntil(Seconds(5));
  ASSERT_EQ(fires.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(fires[static_cast<std::size_t>(i)], Seconds(i + 1));
}

TEST(SimulationTest, PeriodicCallbacksKeepRelativeOrder) {
  // Two periodic tasks at the same cadence keep their registration order at
  // every firing — the property the metrics-then-controllers pipeline
  // relies on.
  Simulation sim;
  std::vector<char> order;
  sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() { order.push_back('a'); });
  sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() { order.push_back('b'); });
  sim.RunUntil(Seconds(3));
  ASSERT_EQ(order.size(), 6u);
  for (std::size_t i = 0; i < order.size(); i += 2) {
    EXPECT_EQ(order[i], 'a');
    EXPECT_EQ(order[i + 1], 'b');
  }
}

TEST(SimulationTest, StepProcessesSingleEvent) {
  Simulation sim;
  int count = 0;
  sim.ScheduleAt(Seconds(1), [&]() { ++count; });
  sim.ScheduleAt(Seconds(2), [&]() { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.Step());
}

// --- Queue timers: cancellation semantics -----------------------------------

TEST(TimerCancelTest, CancelRemovesPendingEvent) {
  Simulation sim;
  std::vector<std::uint32_t> fired;
  const std::uint32_t q =
      sim.AddTimerQueue(Seconds(1), [&fired](std::uint32_t arg) { fired.push_back(arg); });
  const auto ha = sim.ArmTimer(q, 1);
  sim.ArmTimer(q, 2);
  EXPECT_EQ(sim.PendingEvents(), 2u);
  EXPECT_TRUE(sim.Cancel(ha));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  ASSERT_TRUE(sim.CheckHeapInvariant());
  sim.RunUntil(Seconds(3));
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(sim.EventsProcessed(), 1u);  // cancelled timers never fire
  EXPECT_EQ(sim.EventsCancelled(), 1u);
  EXPECT_EQ(sim.EventsScheduled(), 2u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(TimerCancelTest, CancelIsIdempotentAndStaleAfterFiring) {
  Simulation sim;
  const std::uint32_t q = sim.AddTimerQueue(Seconds(1), [](std::uint32_t) {});
  const auto h = sim.ArmTimer(q, 0);
  EXPECT_TRUE(sim.Cancel(h));
  EXPECT_FALSE(sim.Cancel(h));  // double cancel

  const auto h2 = sim.ArmTimer(q, 0);
  sim.RunUntil(Seconds(2));
  EXPECT_FALSE(sim.Cancel(h2));  // already fired
  EXPECT_FALSE(sim.Cancel(Simulation::TimerHandle{}));  // never armed
  EXPECT_FALSE(sim.Cancel(Simulation::TimerHandle{123456, 0}));  // beyond the pool
}

TEST(TimerCancelTest, SlotReuseIsAbaSafe) {
  Simulation sim;
  std::vector<std::uint32_t> fired;
  const std::uint32_t q =
      sim.AddTimerQueue(Seconds(1), [&fired](std::uint32_t arg) { fired.push_back(arg); });
  const auto stale = sim.ArmTimer(q, 1);
  ASSERT_TRUE(sim.Cancel(stale));
  // The freed node is reused immediately (LIFO free list); the stale handle
  // must not be able to touch the new occupant.
  const auto fresh = sim.ArmTimer(q, 2);
  EXPECT_EQ(fresh.node, stale.node);
  EXPECT_NE(fresh.gen, stale.gen);
  EXPECT_FALSE(sim.Cancel(stale));
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{2}));
}

TEST(TimerQueueTest, CancelHeadMiddleAndTail) {
  Simulation sim;
  std::vector<std::uint32_t> fired;
  const std::uint32_t q =
      sim.AddTimerQueue(Millis(10), [&fired](std::uint32_t arg) { fired.push_back(arg); });
  std::vector<Simulation::TimerHandle> h;
  for (std::uint32_t i = 0; i < 5; ++i) {
    h.push_back(sim.ArmTimer(q, i));
    sim.RunUntil(sim.Now() + Millis(1));
  }
  EXPECT_TRUE(sim.Cancel(h[0]));  // head: the heap entry goes stale
  EXPECT_TRUE(sim.Cancel(h[2]));  // middle
  EXPECT_TRUE(sim.Cancel(h[4]));  // tail
  ASSERT_TRUE(sim.CheckHeapInvariant());
  EXPECT_EQ(sim.PendingEvents(), 2u);
  // The stale entry at t = 10 ms fires nothing and leaves the clock alone.
  sim.RunUntil(Millis(10));
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(sim.EventsProcessed(), 0u);
  ASSERT_TRUE(sim.CheckHeapInvariant());
  sim.RunUntil(Millis(20));
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(sim.EventsProcessed(), 2u);
  EXPECT_EQ(sim.EventsCancelled(), 3u);
  ASSERT_TRUE(sim.CheckHeapInvariant());
}

TEST(TimerQueueTest, StepSkipsStaleEntriesWithoutMovingTheClock) {
  Simulation sim;
  int fires = 0;
  const std::uint32_t q = sim.AddTimerQueue(Seconds(1), [&fires](std::uint32_t) { ++fires; });
  const auto only = sim.ArmTimer(q, 0);
  ASSERT_TRUE(sim.Cancel(only));
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_FALSE(sim.Step());  // drops the stale entry, fires nothing
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.EventsProcessed(), 0u);

  const auto first = sim.ArmTimer(q, 0);
  sim.ArmTimer(q, 0);
  sim.ScheduleAt(Millis(500), []() {});
  ASSERT_TRUE(sim.Cancel(first));
  EXPECT_TRUE(sim.Step());  // the closure at 0.5 s
  EXPECT_EQ(sim.Now(), Millis(500));
  EXPECT_TRUE(sim.Step());  // the live timer at 1 s, past its stale entry
  EXPECT_EQ(sim.Now(), Seconds(1));
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(sim.Step());
  EXPECT_TRUE(sim.CheckHeapInvariant());
}

TEST(TimerQueueTest, TimersTieWithHandlerAndClosureEventsInArmOrder) {
  Simulation sim;
  std::vector<int> order;
  const std::uint32_t handler = sim.AddHandler(
      [&order](std::uint32_t arg) { order.push_back(static_cast<int>(arg)); });
  const std::uint32_t slow = sim.AddTimerQueue(
      Seconds(1), [&order](std::uint32_t arg) { order.push_back(static_cast<int>(arg)); });
  const std::uint32_t fast = sim.AddTimerQueue(
      Millis(500), [&order](std::uint32_t arg) { order.push_back(static_cast<int>(arg)); });
  sim.ArmTimer(slow, 0);                                  // due 1 s
  sim.ScheduleAt(Seconds(1), [&]() { order.push_back(1); });
  sim.ScheduleHandlerAt(Millis(500), handler, 2);
  sim.ScheduleAt(Millis(500), [&]() {
    order.push_back(3);
    sim.ArmTimer(fast, 6);                                // due 1 s, armed last
  });
  sim.ScheduleHandlerAt(Seconds(1), handler, 4);
  sim.ArmTimer(fast, 5);                                  // due 0.5 s
  EXPECT_EQ(sim.PendingEvents(), 6u);
  ASSERT_TRUE(sim.CheckHeapInvariant());
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(order, (std::vector<int>{2, 3, 5, 0, 1, 4, 6}));
}

TEST(TimerQueueTest, HandlerCancelsItsQueueHeadAndItsOwnHandleIsStale) {
  Simulation sim;
  std::vector<Simulation::TimerHandle> h(3);
  std::vector<std::uint32_t> fired;
  std::uint32_t q = 0;
  std::function<void(std::uint32_t)> body = [&](std::uint32_t arg) {
    fired.push_back(arg);
    EXPECT_FALSE(sim.Cancel(h[arg]));  // a timer's own handle is stale
    if (arg == 0) {
      EXPECT_TRUE(sim.Cancel(h[1]));  // the head the queue just re-keyed on
      h.push_back(sim.ArmTimer(q, 3));
    }
  };
  q = sim.AddTimerQueue(Millis(10), [&body](std::uint32_t arg) { body(arg); });
  for (std::uint32_t i = 0; i < 3; ++i) h[i] = sim.ArmTimer(q, i);
  sim.RunUntil(Millis(10));
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{0, 2}));
  ASSERT_TRUE(sim.CheckHeapInvariant());
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunUntil(Millis(30));
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(sim.Now(), Millis(30));
}

TEST(TimerQueueTest, QueueAddedFromInsideAHandlerKeepsRunning) {
  Simulation sim;
  std::vector<std::uint32_t> fired;
  std::uint32_t first = 0;
  std::function<void(std::uint32_t)> body = [&](std::uint32_t arg) {
    fired.push_back(arg);
    if (arg > 0) return;
    // Adding queues grows the queue table while this queue's handler runs.
    std::uint32_t added = 0;
    for (int i = 0; i < 64; ++i) {
      added = sim.AddTimerQueue(Millis(1), [&fired](std::uint32_t a) { fired.push_back(a); });
    }
    sim.ArmTimer(added, 10);
    sim.ArmTimer(first, 20);
  };
  first = sim.AddTimerQueue(Millis(5), [&body](std::uint32_t arg) { body(arg); });
  sim.ArmTimer(first, 0);
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{0, 10, 20}));
  EXPECT_TRUE(sim.CheckHeapInvariant());
}

TEST(TimerQueueTest, PendingEventsCountsTimersAndTheRunningPeriodicEvent) {
  Simulation sim;
  const std::uint32_t q = sim.AddTimerQueue(Seconds(5), [](std::uint32_t) {});
  std::vector<std::size_t> seen;
  sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() { seen.push_back(sim.PendingEvents()); });
  const auto a = sim.ArmTimer(q, 0);
  sim.ArmTimer(q, 1);
  sim.ArmTimer(q, 2);
  ASSERT_TRUE(sim.Cancel(a));  // leaves a stale heap entry behind
  EXPECT_EQ(sim.PendingEvents(), 3u);
  sim.RunUntil(Seconds(1));
  // Inside its callback the periodic event still counts, beside 2 timers.
  EXPECT_EQ(seen, (std::vector<std::size_t>{3}));
  EXPECT_EQ(sim.PendingEvents(), 3u);
}

// --- Handler events ----------------------------------------------------------

TEST(HandlerEventTest, InterleavesWithSlotEventsInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  const std::uint32_t handler = sim.AddHandler(
      [&order](std::uint32_t arg) { order.push_back(static_cast<int>(arg)); });
  sim.ScheduleAt(Seconds(1), [&]() { order.push_back(0); });
  sim.ScheduleHandlerAt(Seconds(1), handler, 1);
  sim.ScheduleAt(Seconds(1), [&]() { order.push_back(2); });
  sim.ScheduleHandlerAfter(Millis(500), handler, 3);
  EXPECT_EQ(sim.PendingEvents(), 4u);
  EXPECT_EQ(sim.EventsScheduled(), 4u);
  ASSERT_TRUE(sim.CheckHeapInvariant());
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(order, (std::vector<int>{3, 0, 1, 2}));
  EXPECT_EQ(sim.EventsProcessed(), 4u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(HandlerEventTest, TakesNoTimerSlot) {
  Simulation sim;
  int fires = 0;
  const std::uint32_t handler =
      sim.AddHandler([&fires](std::uint32_t) { ++fires; });
  for (std::uint32_t i = 0; i < 1000; ++i) sim.ScheduleHandlerAt(Seconds(1), handler, i);
  EXPECT_EQ(sim.SlotCapacity(), 0u);
  ASSERT_TRUE(sim.CheckHeapInvariant());
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(fires, 1000);
}

TEST(HandlerEventTest, HandlerRegisteredFromInsideAHandlerKeepsRunning) {
  Simulation sim;
  std::vector<std::uint32_t> seen;
  std::function<void(std::uint32_t)> body = [&](std::uint32_t arg) {
    // Registering grows the handler table while this handler executes.
    std::uint32_t added = 0;
    for (int i = 0; i < 64; ++i) {
      added = sim.AddHandler([&seen](std::uint32_t a) { seen.push_back(a); });
    }
    seen.push_back(arg);
    sim.ScheduleHandlerAfter(1, added, arg + 1);
  };
  const std::uint32_t first =
      sim.AddHandler([&body](std::uint32_t arg) { body(arg); });
  sim.ScheduleHandlerAt(Seconds(1), first, 7);
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{7, 8}));
}

// A refill that leaves a shallow far part moves the near/far boundary ahead
// past empty buckets; the ring's span moves with it, and an event that was
// beyond the old span (scheduled 8.5 s out at t = 0) must move into the ring.
TEST(CalendarRingTest, BoundarySkipPullsOverflowIntoTheRing) {
  Simulation sim;
  std::vector<std::uint32_t> seen;
  const std::uint32_t handler =
      sim.AddHandler([&seen](std::uint32_t arg) { seen.push_back(arg); });
  for (std::uint32_t i = 0; i < 40; ++i) sim.ScheduleHandlerAt(i, handler, i);
  sim.ScheduleHandlerAt(Millis(100), handler, 100);
  sim.ScheduleHandlerAt(Millis(8500), handler, 200);
  ASSERT_TRUE(sim.CheckHeapInvariant());
  sim.RunUntil(0);
  ASSERT_TRUE(sim.CheckHeapInvariant());
  sim.RunUntil(Seconds(10));
  ASSERT_TRUE(sim.CheckHeapInvariant());
  ASSERT_EQ(seen.size(), 42u);
  EXPECT_EQ(seen[40], 100u);
  EXPECT_EQ(seen[41], 200u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

// --- Property test: random interleavings vs a reference model ---------------

// The engine's pending set must behave exactly like an ordered map keyed by
// (when, insertion order): every schedule or arm inserts at the back of its
// time's tie range, a cancel erases, a periodic event re-inserts itself one
// period later after it fires, and RunUntil pops in key order. The four
// kinds share that one order:
//  - closure one-shots and periodic events; a periodic event schedules a
//    closure, a handler event or a queue timer on some of its firings;
//  - handler events, some of which schedule one more at their own time;
//  - queue timers on several queues of different delays, one of them added
//    mid-run. Tests cancel a queue's head, a middle timer or its tail, and a
//    timer's handler may cancel its own queue's new head, cancel another
//    queue's tail, or arm again on its own queue.
// The model replays what each engine callback did (which children it made,
// which timer it cancelled) from the records the callback left, so it only
// has to get the order right. The heap and list invariants are checked
// after every mutation.
struct QueueModelParams {
  int rounds;
  /// Pending events topped up before each round's random operations.
  std::size_t min_pending;
  /// Random operations per round, drawn from [1, max_ops].
  int max_ops;
  /// Schedule times and queue delays are within Now() + [0, when_span].
  SimTime when_span;
  /// Each round advances RunUntil by [0, horizon_span].
  SimTime horizon_span;
  /// Periodic events have a period in [min_period, max_period].
  SimTime min_period = 20;
  SimTime max_period = 200;
  /// Closure and handler events are due on multiples of `when_grain`.
  SimTime when_grain = 1;
};

void CheckAgainstReferenceModel(const QueueModelParams& p) {
  Rng rng(0x70F4);
  Simulation sim;
  using Key = std::pair<SimTime, std::uint64_t>;
  std::map<Key, int> model;  // keys are unique: order never repeats
  enum class Kind { kClosure, kPeriodic, kHandler, kTimer };
  struct Event {
    Kind kind = Kind::kClosure;
    Key key;               ///< the model's key; set by the model side
    bool spawns = false;   ///< handler: schedules a child handler event when fired
    SimTime period = 0;    ///< periodic only
    int engine_fires = 0;
    int model_fires = 0;
    /// Events this one scheduled when it fired, in order: a periodic
    /// event's children (closure, handler event or timer, on odd
    /// firings), a spawning handler's child, a timer's re-arm.
    std::vector<int> children;
    // Queue timers:
    std::size_t queue = 0;  ///< index into `queues`
    Simulation::TimerHandle handle;
    bool pending = false;  ///< engine side: armed, not yet fired or cancelled
    int victim = -1;       ///< the timer its handler cancelled, if any
  };
  struct Queue {
    std::uint32_t id = 0;
    SimTime delay = 0;
    std::vector<int> armed;  ///< tokens in arm order; compacted lazily
  };
  std::vector<Event> events;  // indexed by token
  std::deque<Queue> queues;
  std::vector<Simulation::TimerHandle> dead;  // fired or cancelled handles
  int periodic_count = 0;
  int handler_fires = 0, timer_fires = 0, handler_cancels = 0;
  int cancels_at[3] = {0, 0, 0};  // head, middle, tail
  std::uint64_t cancels = 0;
  std::vector<int> fired;
  std::uint64_t order = 0;  // mirrors the engine's seq allocation order

  // Drops tokens that are no longer pending from a queue's arm list,
  // checking that a fired timer's handle is stale.
  const auto compact = [&](Queue& q) {
    std::vector<int> kept;
    for (const int token : q.armed) {
      if (events[static_cast<std::size_t>(token)].pending) kept.push_back(token);
    }
    q.armed.swap(kept);
  };

  // Engine side: every add_* schedules an event and records it under a
  // fresh token. Callbacks index `events` at fire time because spawning
  // grows it: they take no reference into it across a call that adds.
  std::function<int(SimTime, bool)> add_handler_event;
  std::function<int(SimTime, SimTime)> add_event;
  std::function<int(std::size_t)> arm_timer;
  const auto new_token = [&](Kind kind) {
    events.push_back(Event{});
    events.back().kind = kind;
    return static_cast<int>(events.size() - 1);
  };
  std::function<void(std::uint32_t)> on_handler = [&](std::uint32_t arg) {
    const auto self = static_cast<std::size_t>(arg);
    fired.push_back(static_cast<int>(self));
    ++handler_fires;
    if (!events[self].spawns) return;
    // Due now, so it lands at the back of the current tie range.
    const int child = add_handler_event(sim.Now(), false);
    events[self].children.push_back(child);
  };
  const std::uint32_t handler =
      sim.AddHandler([&on_handler](std::uint32_t arg) { on_handler(arg); });
  add_handler_event = [&](SimTime when, bool spawns) {
    const int token = new_token(Kind::kHandler);
    events.back().spawns = spawns;
    sim.ScheduleHandlerAt(when, handler, static_cast<std::uint32_t>(token));
    return token;
  };
  const auto on_timer = [&](std::uint32_t arg) {
    const auto self = static_cast<std::size_t>(arg);
    fired.push_back(static_cast<int>(self));
    ++timer_fires;
    events[self].pending = false;
    EXPECT_FALSE(sim.Cancel(events[self].handle));  // its own handle is stale
    const std::size_t qi = events[self].queue;
    switch (self % 4) {
      case 0:    // cancel the head this queue was just re-keyed on
      case 2: {  // cancel the tail of the next queue
        Queue& q = queues[self % 4 == 0 ? qi : (qi + 1) % queues.size()];
        compact(q);
        if (q.armed.empty()) break;
        const int victim = self % 4 == 0 ? q.armed.front() : q.armed.back();
        Event& v = events[static_cast<std::size_t>(victim)];
        EXPECT_TRUE(sim.Cancel(v.handle));
        v.pending = false;
        dead.push_back(v.handle);
        events[self].victim = victim;
        ++handler_cancels;
        ++cancels;
        break;
      }
      case 1: {  // arm again on the same queue
        const int child = arm_timer(qi);
        events[self].children.push_back(child);
        break;
      }
      default:
        break;
    }
  };
  arm_timer = [&](std::size_t qi) {
    const int token = new_token(Kind::kTimer);
    Event& ev = events.back();
    ev.queue = qi;
    ev.pending = true;
    ev.handle = sim.ArmTimer(queues[qi].id, static_cast<std::uint32_t>(token));
    queues[qi].armed.push_back(token);
    return token;
  };
  const auto add_queue = [&](SimTime delay) {
    Queue q;
    q.delay = delay;
    q.id = sim.AddTimerQueue(delay, [&on_timer](std::uint32_t arg) { on_timer(arg); });
    queues.push_back(std::move(q));
  };
  add_event = [&](SimTime when, SimTime period) {
    const int token = new_token(period > 0 ? Kind::kPeriodic : Kind::kClosure);
    const auto self = static_cast<std::size_t>(token);
    auto fire = [&sim, &events, &fired, &queues, &add_event, &add_handler_event,
                 &arm_timer, self]() {
      fired.push_back(static_cast<int>(self));
      if (events[self].period == 0) return;
      const int fires = ++events[self].engine_fires;
      if (fires % 2 == 0) return;
      // Due at or after this event's re-arm, but scheduled first: the
      // re-arm takes its seq only after the callback returns.
      const SimTime due = sim.Now() + events[self].period;
      int child;
      if (fires % 6 == 1) {
        child = add_event(due, 0);
      } else if (fires % 6 == 3) {
        child = add_handler_event(due, false);
      } else {
        child = arm_timer(static_cast<std::size_t>(fires) % queues.size());
      }
      events[self].children.push_back(child);
    };
    events[self].period = period;
    if (period > 0) {
      sim.SchedulePeriodic(when, period, fire);
    } else {
      sim.ScheduleAt(when, fire);
    }
    return token;
  };

  // Model side: inserts `token` at the back of `when`'s tie range.
  const auto model_insert = [&](int token, SimTime when) {
    Event& ev = events[static_cast<std::size_t>(token)];
    ev.key = Key{when, order++};
    model.emplace(ev.key, token);
  };
  const auto model_arm = [&](int token, SimTime now) {
    const Event& ev = events[static_cast<std::size_t>(token)];
    model_insert(token, now + queues[ev.queue].delay);
  };
  const auto random_when = [&]() {
    // A small range or a coarse grain gives dense tie collisions; a large
    // range spreads events over the far part.
    const SimTime when = sim.Now() + rng.UniformInt(0, p.when_span);
    return (when + p.when_grain - 1) / p.when_grain * p.when_grain;
  };
  const auto random_queue = [&]() {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(queues.size()) - 1));
  };
  const auto schedule_closure = [&](bool periodic) {
    const SimTime when = random_when();
    const SimTime period = periodic ? rng.UniformInt(p.min_period, p.max_period) : 0;
    model_insert(add_event(when, period), when);
  };
  const auto schedule_handler = [&]() {
    const SimTime when = random_when();
    model_insert(add_handler_event(when, rng.NextDouble() < 0.3), when);
  };
  const auto schedule_timer = [&]() { model_arm(arm_timer(random_queue()), sim.Now()); };
  // Cancels a queue's head, a middle timer or its tail.
  const auto cancel_timer = [&]() {
    const std::size_t qi = random_queue();
    Queue& q = queues[qi];
    compact(q);
    if (q.armed.empty()) return;
    const auto last = static_cast<std::int64_t>(q.armed.size()) - 1;
    const int where = static_cast<int>(rng.UniformInt(0, 2));
    const std::int64_t pos = where == 0 ? 0 : where == 2 ? last : rng.UniformInt(0, last);
    Event& ev = events[static_cast<std::size_t>(q.armed[static_cast<std::size_t>(pos)])];
    ASSERT_TRUE(sim.Cancel(ev.handle));
    EXPECT_FALSE(sim.Cancel(ev.handle));
    ev.pending = false;
    dead.push_back(ev.handle);
    model.erase(ev.key);
    ++cancels;
    ++cancels_at[pos == 0 ? 0 : pos == last ? 2 : 1];
  };
  // Pops the model up to `horizon` as the engine would, re-arms, children
  // and in-handler cancels included, and returns the expected firings.
  const auto model_run_until = [&](SimTime horizon) {
    std::vector<int> expected;
    while (!model.empty() && model.begin()->first.first <= horizon) {
      const auto [key, token] = *model.begin();
      model.erase(model.begin());
      expected.push_back(token);
      Event& ev = events[static_cast<std::size_t>(token)];
      switch (ev.kind) {
        case Kind::kClosure:
          break;
        case Kind::kHandler:
          if (ev.spawns) model_insert(ev.children.at(0), key.first);
          break;
        case Kind::kTimer:
          if (ev.victim >= 0) model.erase(events[static_cast<std::size_t>(ev.victim)].key);
          if (!ev.children.empty()) model_arm(ev.children[0], key.first);
          break;
        case Kind::kPeriodic: {
          const SimTime next = key.first + ev.period;
          const int fires = ++ev.model_fires;
          if (fires % 2 == 1) {
            const int child = ev.children.at(static_cast<std::size_t>(fires / 2));
            if (events[static_cast<std::size_t>(child)].kind == Kind::kTimer) {
              model_arm(child, key.first);
            } else {
              model_insert(child, next);
            }
          }
          ev.key = Key{next, order++};
          model.emplace(ev.key, token);
          break;
        }
      }
    }
    return expected;
  };

  // Two queues from the start; a third, of zero delay, joins mid-run.
  add_queue(p.when_span / 4);
  add_queue(p.when_span);
  std::size_t min_seen_pending = SIZE_MAX;
  for (int round = 0; round < p.rounds; ++round) {
    if (round == p.rounds / 3) add_queue(0);
    while (model.size() < p.min_pending) {
      const double u = rng.NextDouble();
      if (u < 0.3) {
        schedule_handler();
      } else if (u < 0.6) {
        schedule_timer();
      } else {
        schedule_closure(/*periodic=*/false);
      }
    }
    ASSERT_TRUE(sim.CheckHeapInvariant());
    min_seen_pending = std::min(min_seen_pending, sim.PendingEvents());
    const int ops = static_cast<int>(rng.UniformInt(1, p.max_ops));
    for (int k = 0; k < ops; ++k) {
      const double u = rng.NextDouble();
      if (u < 0.25) {
        schedule_closure(/*periodic=*/false);
      } else if (u < 0.4) {
        schedule_handler();
      } else if (u < 0.43) {
        // Periodic events never stop, so keep a handful.
        if (periodic_count < 4) {
          ++periodic_count;
          schedule_closure(/*periodic=*/true);
        }
      } else if (u < 0.7) {
        schedule_timer();
      } else if (u < 0.95) {
        cancel_timer();
      } else if (!dead.empty()) {
        // A fired or cancelled handle stays stale, even once its node is
        // reused.
        const auto i = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(dead.size()) - 1));
        EXPECT_FALSE(sim.Cancel(dead[i]));
      }
      ASSERT_TRUE(sim.CheckHeapInvariant());
    }

    // Advance to a random horizon and compare the fired tokens with the
    // model's expected pop order.
    const SimTime horizon = sim.Now() + rng.UniformInt(0, p.horizon_span);
    fired.clear();
    sim.RunUntil(horizon);
    ASSERT_TRUE(sim.CheckHeapInvariant());
    ASSERT_EQ(fired, model_run_until(horizon)) << "divergence in round " << round;
    for (const int token : fired) {
      const Event& ev = events[static_cast<std::size_t>(token)];
      if (ev.kind == Kind::kTimer) dead.push_back(ev.handle);
    }
    EXPECT_EQ(sim.PendingEvents(), model.size());
    EXPECT_EQ(sim.EventsScheduled(), events.size());
    EXPECT_EQ(sim.EventsCancelled(), cancels);
  }
  EXPECT_GE(min_seen_pending, p.min_pending);
  // The mix really interleaves the kinds and reaches every cancel path.
  EXPECT_GE(handler_fires, p.rounds / 2);
  EXPECT_GE(timer_fires, p.rounds / 2);
  EXPECT_GT(handler_cancels, 0);
  EXPECT_GT(cancels_at[0], 0);
  EXPECT_GT(cancels_at[1], 0);
  EXPECT_GT(cancels_at[2], 0);

  // Drain everything but the periodic events (which re-arm forever) and
  // the children they keep making, and compare the tail.
  fired.clear();
  const SimTime end = sim.Now() + 4 * (p.when_span + 200);
  sim.RunUntil(end);
  EXPECT_EQ(fired, model_run_until(end));
  EXPECT_EQ(sim.PendingEvents(), model.size());
  for (const auto& [key, token] : model) EXPECT_GT(key.first, end);
  EXPECT_LE(model.size(), static_cast<std::size_t>(2 * periodic_count));
  ASSERT_TRUE(sim.CheckHeapInvariant());
}

// Tens of pending events: sifts stay within two or three levels.
TEST(TimerQueueProperty, MatchesMultimapReferenceModel) {
  CheckAgainstReferenceModel({/*rounds=*/300, /*min_pending=*/0, /*max_ops=*/8,
                              /*when_span=*/200, /*horizon_span=*/120});
}

// At least 5k pending events (6000 topped up each round): a root-to-leaf
// sift crosses six levels of the 4-ary heap, with ~3 events per
// microsecond of `when` so ties are dense at every depth, and the timer
// queues hold thousands of timers each.
TEST(TimerQueueProperty, MatchesMultimapReferenceModelAtDepth) {
  CheckAgainstReferenceModel({/*rounds=*/120, /*min_pending=*/6000,
                              /*max_ops=*/64, /*when_span=*/2000,
                              /*horizon_span=*/12});
}

// 4000 events due on a 256 us grid within 8 ms: over a hundred share each
// `when`, and every fourth grid line is a bucket boundary of the calendar
// ring, so ties straddle the near/far boundary as it moves. The far part
// stays deep, so every refill pours one bucket at a time.
TEST(TimerQueueProperty, MatchesMultimapReferenceModelOnACoarseGrid) {
  QueueModelParams p{/*rounds=*/150, /*min_pending=*/4000, /*max_ops=*/32,
                     /*when_span=*/Millis(8), /*horizon_span=*/1000};
  p.when_grain = 256;
  CheckAgainstReferenceModel(p);
}

// Times well past the calendar ring's ~8.4 s span: events up to 30 s out,
// a 7.5 s and a 30 s timer queue, periods of 0.2-12 s, few pending events
// and rounds that advance up to 20 s. Entries go through the near heap, the
// ring and the overflow heap; periodic re-arms and queue re-keys land in
// all three; long idle gaps leave the ring empty while the overflow heap is
// not, so refills jump the ring forward.
TEST(TimerQueueProperty, MatchesMultimapReferenceModelPastTheRing) {
  CheckAgainstReferenceModel({/*rounds=*/400, /*min_pending=*/0, /*max_ops=*/6,
                              /*when_span=*/Seconds(30), /*horizon_span=*/Seconds(20),
                              /*min_period=*/Millis(200), /*max_period=*/Seconds(12)});
}

// A few hundred events over 30 s: each refill fills its batch from the
// ring's first seconds and leaves a shallow far part, so the boundary then
// skips ahead while overflow entries move into the ring behind it.
TEST(TimerQueueProperty, MatchesMultimapReferenceModelPastTheRingShallow) {
  CheckAgainstReferenceModel({/*rounds=*/200, /*min_pending=*/300, /*max_ops=*/16,
                              /*when_span=*/Seconds(30), /*horizon_span=*/Seconds(2),
                              /*min_period=*/Millis(200), /*max_period=*/Seconds(12)});
}

}  // namespace
}  // namespace topfull::des
