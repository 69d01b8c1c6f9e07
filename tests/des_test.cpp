// Unit tests for the discrete-event engine: ordering, determinism, periodic
// scheduling, run-until semantics, timer cancellation, handler events, and a
// randomized property test of the indexed heap against a std::multimap
// reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

// --- Cancellation / reschedule semantics ------------------------------------

TEST(TimerCancelTest, CancelRemovesPendingEvent) {
  Simulation sim;
  bool a = false, b = false;
  const auto ha = sim.ScheduleAt(Seconds(1), [&]() { a = true; });
  sim.ScheduleAt(Seconds(2), [&]() { b = true; });
  EXPECT_TRUE(sim.Cancel(ha));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunUntil(Seconds(3));
  EXPECT_FALSE(a);
  EXPECT_TRUE(b);
  EXPECT_EQ(sim.EventsProcessed(), 1u);  // cancelled events never fire
  EXPECT_EQ(sim.EventsCancelled(), 1u);
  EXPECT_EQ(sim.EventsScheduled(), 2u);
}

TEST(TimerCancelTest, CancelIsIdempotentAndStaleAfterFiring) {
  Simulation sim;
  const auto h = sim.ScheduleAt(Seconds(1), []() {});
  EXPECT_TRUE(sim.Cancel(h));
  EXPECT_FALSE(sim.Cancel(h));  // double cancel

  const auto h2 = sim.ScheduleAt(Seconds(1), []() {});
  sim.RunUntil(Seconds(2));
  EXPECT_FALSE(sim.Cancel(h2));  // already fired
  EXPECT_FALSE(sim.Cancel(Simulation::TimerHandle{}));  // never scheduled
}

TEST(TimerCancelTest, SlotReuseIsAbaSafe) {
  Simulation sim;
  bool old_fired = false, new_fired = false;
  const auto stale = sim.ScheduleAt(Seconds(1), [&]() { old_fired = true; });
  ASSERT_TRUE(sim.Cancel(stale));
  // The freed slot is reused immediately (LIFO free list); the stale handle
  // must not be able to touch the new occupant.
  const auto fresh = sim.ScheduleAt(Seconds(1), [&]() { new_fired = true; });
  EXPECT_EQ(fresh.slot, stale.slot);
  EXPECT_NE(fresh.gen, stale.gen);
  EXPECT_FALSE(sim.Cancel(stale));
  EXPECT_FALSE(sim.Reschedule(stale, Seconds(5)));
  sim.RunUntil(Seconds(2));
  EXPECT_FALSE(old_fired);
  EXPECT_TRUE(new_fired);
}

TEST(TimerCancelTest, RescheduleMovesEventToFreshTieBreakPosition) {
  Simulation sim;
  std::vector<char> order;
  const auto ha = sim.ScheduleAt(Seconds(1), [&]() { order.push_back('a'); });
  sim.ScheduleAt(Seconds(2), [&]() { order.push_back('b'); });
  // Moving 'a' onto 'b''s time slots it BEHIND 'b': a reschedule reads as
  // cancel + schedule, so the event goes to the back of the tie.
  EXPECT_TRUE(sim.Reschedule(ha, Seconds(2)));
  sim.RunUntil(Seconds(3));
  EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
}

TEST(TimerCancelTest, ReschedulePastClampsToNow) {
  Simulation sim;
  sim.ScheduleAt(Seconds(5), []() {});
  sim.RunUntil(Seconds(4));
  SimTime fired_at = -1;
  // Can't happen "yesterday"; fires at the current clock instead.
  const auto h = sim.ScheduleAt(Seconds(6), [&]() { fired_at = sim.Now(); });
  EXPECT_TRUE(sim.Reschedule(h, Seconds(1)));
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(fired_at, Seconds(4));
}

TEST(TimerCancelTest, PeriodicCancelStopsFirings) {
  Simulation sim;
  int fires = 0;
  const auto h = sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() { ++fires; });
  sim.RunUntil(Seconds(3));
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(sim.Cancel(h));
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(TimerCancelTest, PeriodicCanCancelItselfFromItsOwnCallback) {
  Simulation sim;
  int fires = 0;
  Simulation::TimerHandle h;
  h = sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() {
    if (++fires == 3) {
      EXPECT_TRUE(sim.Cancel(h));
      EXPECT_FALSE(sim.Cancel(h));  // second cancel inside the callback
    }
  });
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_FALSE(sim.Cancel(h));  // handle dead once the slot is freed
}

TEST(TimerCancelTest, PeriodicRescheduleShiftsNextFiringOnly) {
  Simulation sim;
  std::vector<SimTime> fires;
  const auto h = sim.SchedulePeriodic(Seconds(1), Seconds(1),
                                      [&]() { fires.push_back(sim.Now()); });
  // Delay the first firing to t=3; the period then resumes from there.
  EXPECT_TRUE(sim.Reschedule(h, Seconds(3)));
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(fires, (std::vector<SimTime>{Seconds(3), Seconds(4), Seconds(5)}));
}

TEST(TimerCancelTest, HandleStaysValidAcrossPeriodicRearms) {
  Simulation sim;
  int fires = 0;
  const auto h = sim.SchedulePeriodic(Seconds(1), Seconds(1), [&]() { ++fires; });
  sim.RunUntil(Seconds(2));
  EXPECT_TRUE(sim.Cancel(h));  // same handle, two re-arms later
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(fires, 2);
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

// --- Property test: random interleavings vs a reference model ---------------

// The engine's pending set must behave exactly like an ordered map keyed by
// (when, insertion order): schedule inserts at the back of its time's tie
// range, cancel erases, reschedule erases + re-inserts at the back, a
// periodic event re-inserts itself one period later after it fires, and
// RunUntil pops in key order. Handler events share that order with slot
// events: they are scheduled directly, spawned by periodic events, and
// spawn one more handler event at their own time when they fire. The 4-ary
// heap invariant is checked after every mutation.
struct QueueModelParams {
  int rounds;
  /// Pending events topped up before each round's random operations.
  std::size_t min_pending;
  /// Random operations per round, drawn from [1, max_ops].
  int max_ops;
  /// Schedule/reschedule times are Now() + [0, when_span].
  SimTime when_span;
  /// Each round advances RunUntil by [0, horizon_span].
  SimTime horizon_span;
};

void CheckAgainstReferenceModel(const QueueModelParams& p) {
  Rng rng(0x70F4);
  Simulation sim;
  using Key = std::pair<SimTime, std::uint64_t>;
  std::map<Key, int> model;  // keys are unique: order never repeats
  struct Event {
    Simulation::TimerHandle handle;  ///< slot events only
    Key key;               ///< the model's key; set by the model side
    bool handler = false;  ///< a handler event (no handle, never cancelled)
    bool spawns = false;   ///< handler: schedules a child handler event when fired
    SimTime period = 0;    ///< 0 = one-shot
    int cancel_after = 0;  ///< periodic: cancels itself on this firing (0 = never)
    int engine_fires = 0;
    int model_fires = 0;
    /// Periodic: a slot one-shot on firings 1, 5, 9, ... and a handler
    /// event on firings 3, 7, 11, ...; spawning handler: its one child.
    std::vector<int> children;
  };
  std::vector<Event> events;  // indexed by token
  std::vector<int> live;      // live slot-event tokens, for random picks
  std::size_t handlers_pending = 0;  // handler events in the model
  int handler_fires = 0;
  std::vector<int> fired;
  std::uint64_t order = 0;  // mirrors the engine's seq allocation order

  // Engine side: schedules an event and records it under a fresh token.
  // Callbacks index `events` at fire time because spawning may grow it.
  std::function<int(SimTime, bool)> add_handler_event;
  std::function<void(std::uint32_t)> on_handler = [&](std::uint32_t arg) {
    const auto self = static_cast<std::size_t>(arg);
    fired.push_back(static_cast<int>(self));
    ++handler_fires;
    if (!events[self].spawns) return;
    // Due now, so it lands at the back of the current tie range. (Spawning
    // grows `events`: take no reference into it across the call.)
    const int child = add_handler_event(sim.Now(), false);
    events[self].children.push_back(child);
  };
  const std::uint32_t handler =
      sim.AddHandler([&on_handler](std::uint32_t arg) { on_handler(arg); });
  add_handler_event = [&](SimTime when, bool spawns) {
    const int token = static_cast<int>(events.size());
    events.push_back(Event{});
    events.back().handler = true;
    events.back().spawns = spawns;
    sim.ScheduleHandlerAt(when, handler, static_cast<std::uint32_t>(token));
    return token;
  };
  std::function<int(SimTime, SimTime, int)> add_event =
      [&](SimTime when, SimTime period, int cancel_after) {
        const int token = static_cast<int>(events.size());
        const auto self = static_cast<std::size_t>(token);
        auto fire = [&sim, &events, &fired, &add_event, &add_handler_event, self]() {
          fired.push_back(static_cast<int>(self));
          if (events[self].period == 0) return;
          const int fires = ++events[self].engine_fires;
          // A periodic event cannot move itself while it runs.
          EXPECT_FALSE(sim.Reschedule(events[self].handle, sim.Now() + 1));
          if (fires % 2 == 1) {
            // Due exactly when this event re-arms, but scheduled first: the
            // re-arm takes its seq only after the callback returns.
            const SimTime due = sim.Now() + events[self].period;
            const int child = fires % 4 == 1 ? add_event(due, 0, 0)
                                             : add_handler_event(due, false);
            events[self].children.push_back(child);
          }
          if (fires == events[self].cancel_after) {
            EXPECT_TRUE(sim.Cancel(events[self].handle));
          }
        };
        events.push_back(Event{});
        events[self].period = period;
        events[self].cancel_after = cancel_after;
        events[self].handle = period > 0 ? sim.SchedulePeriodic(when, period, fire)
                                         : sim.ScheduleAt(when, fire);
        live.push_back(token);
        return token;
      };

  const auto remove_live = [&](std::size_t idx) {
    live[idx] = live.back();
    live.pop_back();
  };
  const auto pick_live = [&]() {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
  };
  // Model side: inserts `token` at the back of `when`'s tie range.
  const auto model_insert = [&](int token, SimTime when) {
    Event& ev = events[static_cast<std::size_t>(token)];
    ev.key = Key{when, order++};
    model.emplace(ev.key, token);
    if (ev.handler) ++handlers_pending;
  };
  const auto schedule = [&](bool periodic) {
    // Small time range on purpose: dense tie collisions.
    const SimTime when = sim.Now() + rng.UniformInt(0, p.when_span);
    const SimTime period = periodic ? rng.UniformInt(20, 200) : 0;
    const int cancel_after = periodic ? static_cast<int>(rng.UniformInt(0, 3)) : 0;
    model_insert(add_event(when, period, cancel_after), when);
  };
  const auto schedule_handler = [&]() {
    const SimTime when = sim.Now() + rng.UniformInt(0, p.when_span);
    model_insert(add_handler_event(when, rng.NextDouble() < 0.3), when);
  };
  // Pops the model up to `horizon` as the engine would, re-arms and
  // spawned children included, and returns the expected firing tokens.
  const auto model_run_until = [&](SimTime horizon) {
    std::vector<int> expected;
    while (!model.empty() && model.begin()->first.first <= horizon) {
      const auto [key, token] = *model.begin();
      model.erase(model.begin());
      expected.push_back(token);
      Event& ev = events[static_cast<std::size_t>(token)];
      if (ev.handler) {
        --handlers_pending;
        if (ev.spawns) model_insert(ev.children.at(0), key.first);
        continue;
      }
      if (ev.period == 0) continue;
      const SimTime next = key.first + ev.period;
      const int fires = ++ev.model_fires;
      if (fires % 2 == 1) {
        model_insert(ev.children[static_cast<std::size_t>(fires / 2)], next);
      }
      if (fires == ev.cancel_after) continue;
      ev.key = Key{next, order++};
      model.emplace(ev.key, token);
    }
    return expected;
  };

  std::size_t min_seen_pending = SIZE_MAX;
  for (int round = 0; round < p.rounds; ++round) {
    while (live.size() + handlers_pending < p.min_pending) {
      if (rng.NextDouble() < 0.3) {
        schedule_handler();
      } else {
        schedule(/*periodic=*/false);
      }
    }
    ASSERT_TRUE(sim.CheckHeapInvariant());
    min_seen_pending = std::min(min_seen_pending, sim.PendingEvents());
    const int ops = static_cast<int>(rng.UniformInt(1, p.max_ops));
    for (int k = 0; k < ops; ++k) {
      const double u = rng.NextDouble();
      if (u < 0.3 || live.empty()) {
        schedule(/*periodic=*/false);
      } else if (u < 0.45) {
        schedule_handler();
      } else if (u < 0.55) {
        schedule(/*periodic=*/true);
      } else if (u < 0.8) {
        const std::size_t idx = pick_live();
        Event& ev = events[static_cast<std::size_t>(live[idx])];
        ASSERT_TRUE(sim.Cancel(ev.handle));
        EXPECT_FALSE(sim.Cancel(ev.handle));
        model.erase(ev.key);
        remove_live(idx);
      } else {
        // Reschedule: same token (and period), fresh tie position.
        const std::size_t idx = pick_live();
        const int token = live[idx];
        Event& ev = events[static_cast<std::size_t>(token)];
        const SimTime when = sim.Now() + rng.UniformInt(0, p.when_span);
        ASSERT_TRUE(sim.Reschedule(ev.handle, when));
        model.erase(ev.key);
        model_insert(token, when);
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
    for (std::size_t idx = live.size(); idx-- > 0;) {
      const Event& ev = events[static_cast<std::size_t>(live[idx])];
      const bool done = ev.period == 0 ? ev.key.first <= horizon
                                       : ev.model_fires == ev.cancel_after &&
                                             ev.cancel_after > 0;
      if (!done) continue;
      EXPECT_FALSE(sim.Cancel(ev.handle));  // fired handles are stale
      remove_live(idx);
    }
    EXPECT_EQ(sim.PendingEvents(), model.size());
    EXPECT_EQ(live.size() + handlers_pending, model.size());
    EXPECT_EQ(sim.EventsScheduled(), events.size());
  }
  EXPECT_GE(min_seen_pending, p.min_pending);
  EXPECT_GE(handler_fires, p.rounds / 2);  // the mix really interleaves kinds

  // Cancel the periodic events (they would re-arm forever), then drain
  // everything left and compare the tail.
  for (std::size_t idx = live.size(); idx-- > 0;) {
    Event& ev = events[static_cast<std::size_t>(live[idx])];
    if (ev.period == 0) continue;
    ASSERT_TRUE(sim.Cancel(ev.handle));
    model.erase(ev.key);
    remove_live(idx);
  }
  fired.clear();
  const SimTime end = sim.Now() + Seconds(10);
  sim.RunUntil(end);
  EXPECT_EQ(fired, model_run_until(end));
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(handlers_pending, 0u);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  ASSERT_TRUE(sim.CheckHeapInvariant());
}

// Tens of pending events: sifts stay within two or three levels.
TEST(TimerQueueProperty, MatchesMultimapReferenceModel) {
  CheckAgainstReferenceModel({/*rounds=*/300, /*min_pending=*/0, /*max_ops=*/8,
                              /*when_span=*/200, /*horizon_span=*/120});
}

// At least 5k pending events (6000 topped up each round): a root-to-leaf
// sift crosses six levels of the 4-ary heap, with ~3 events per
// microsecond of `when` so ties are dense at every depth.
TEST(TimerQueueProperty, MatchesMultimapReferenceModelAtDepth) {
  CheckAgainstReferenceModel({/*rounds=*/120, /*min_pending=*/6000,
                              /*max_ops=*/64, /*when_span=*/2000,
                              /*horizon_span=*/12});
}

}  // namespace
}  // namespace topfull::des
