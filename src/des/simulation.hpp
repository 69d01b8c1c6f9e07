// Discrete-event simulation engine.
//
// A Simulation owns a time-ordered event queue. Components schedule
// callbacks at absolute or relative times; ties are broken by insertion
// order so runs are fully deterministic. The engine is single-threaded by
// design — determinism and reproducibility outrank parallel speed for the
// reproduction experiments.
//
// The queue is a keyed, indexed 4-ary min-heap holding two kinds of event,
// both ordered by (when, seq) with seq drawn from one counter:
//
//  - Slot events (ScheduleAt/ScheduleAfter/SchedulePeriodic) own a pool
//    slot whose address never moves. The slot carries the InlineEvent and a
//    heap_pos back-pointer that every sift keeps current; the back-pointer
//    is what buys O(log n) cancellation — ScheduleAt returns a
//    generation-counted TimerHandle, and Cancel/Reschedule locate the
//    event's heap entry through its slot. Producers: hop and client
//    timeouts, periodic ticks, hop retries, the client-retry backoff and
//    cross-shard message delivery.
//  - Handler events (ScheduleHandlerAt/ScheduleHandlerAfter) are for work
//    that is never cancelled. A handler is registered once (AddHandler);
//    an event is just {when, seq, handler, arg} in the heap entry, with no
//    slot, no callback move and no back-pointer writes, and it cannot be
//    cancelled or moved. Producers: closed-loop think timers (arg = user),
//    open-loop arrivals, and pod service completions (arg = the pod's
//    in-service record).
//
// The key lives in the heap entry alone (a slot carries no copy of it).
// seq is unique, so (when, seq) is a strict total order and the pop order
// does not depend on the heap's internal layout or on an event's kind.
// Callbacks are inline (fixed storage, no heap), so scheduling costs zero
// allocations once the slot pool and heap have reached their high-water
// marks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/inline_function.hpp"
#include "common/sim_time.hpp"

namespace topfull::des {

/// Slot-event callback with guaranteed-inline capture storage. 112 bytes
/// leaves room for a std::function-based test callback; anything larger is
/// a compile error at the schedule site.
using InlineEvent = InlineFunction<void(), 112>;

/// Handler-event callback: registered once, invoked with the `arg` of each
/// event scheduled for it. 16 bytes holds a `this` capture.
using EventHandler = InlineFunction<void(std::uint32_t arg), 16>;

class Simulation {
 public:
  using Callback = InlineEvent;

  /// Identity of a scheduled event, valid until it fires or is cancelled.
  /// Slot ids are reused; `gen` makes stale handles harmless (Cancel and
  /// Reschedule on a fired/cancelled handle return false — ABA-safe).
  struct TimerHandle {
    std::uint32_t slot = 0xffffffffu;
    std::uint32_t gen = 0;
    bool valid() const { return slot != 0xffffffffu; }
  };

  /// Current simulation time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (>= Now()).
  TimerHandle ScheduleAt(SimTime when, Callback fn);

  /// Schedules `fn` after `delay` (>= 0) from now.
  TimerHandle ScheduleAfter(SimTime delay, Callback fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` every `period` (> 0), starting at `start`, until the
  /// simulation ends or the handle is cancelled. The slot re-arms in place
  /// after each firing (no allocation, no new handle); the returned handle
  /// stays valid across firings.
  TimerHandle SchedulePeriodic(SimTime start, SimTime period, Callback fn);

  /// Registers a handler for ScheduleHandlerAt and returns its id. The
  /// handler lives as long as the Simulation; it may be registered at any
  /// time, including from inside a running event.
  std::uint32_t AddHandler(EventHandler fn);

  /// Schedules handler `handler` to run with `arg` at absolute time `when`
  /// (>= Now()). Same (when, seq) order and counters as ScheduleAt, but the
  /// event has no slot and no handle: it cannot be cancelled or moved.
  void ScheduleHandlerAt(SimTime when, std::uint32_t handler, std::uint32_t arg);

  /// Schedules handler `handler` with `arg` after `delay` (>= 0) from now.
  void ScheduleHandlerAfter(SimTime delay, std::uint32_t handler,
                            std::uint32_t arg) {
    ScheduleHandlerAt(now_ + delay, handler, arg);
  }

  /// Cancels a pending event in O(log n). Returns false when the handle is
  /// stale (already fired, already cancelled, or one-shot currently
  /// executing). Cancelling a periodic event from inside its own callback
  /// is allowed and stops the re-arm.
  bool Cancel(TimerHandle handle);

  /// Moves a pending event to absolute time `when` (clamped to >= Now()),
  /// as if it had been cancelled and re-scheduled: the event goes to the
  /// back of the tie-break order at its new time. For a periodic event
  /// this shifts the next firing; the period is unchanged. Returns false
  /// for stale handles and for a periodic event currently executing.
  bool Reschedule(TimerHandle handle, SimTime when);

  /// Runs events until the queue is empty or time would exceed `end`.
  /// The clock is left at `end` afterwards.
  void RunUntil(SimTime end);

  /// Processes a single event; returns false if the queue is empty.
  bool Step();

  /// Number of events processed so far. Cancelled events never fire and
  /// are not counted here.
  std::uint64_t EventsProcessed() const { return events_processed_; }

  /// Number of events cancelled before firing.
  std::uint64_t EventsCancelled() const { return events_cancelled_; }

  /// Number of ScheduleAt/ScheduleAfter/SchedulePeriodic and
  /// ScheduleHandlerAt/ScheduleHandlerAfter calls (periodic re-arms not
  /// included).
  std::uint64_t EventsScheduled() const { return events_scheduled_; }

  /// Pending event count, slot and handler events alike.
  std::size_t PendingEvents() const { return heap_.size(); }

  /// Timer slot slab pool occupancy (for the live telemetry plane): total
  /// slots ever carved from slabs, and how many are currently on the free
  /// list. In-use slots == SlotCapacity() - SlotsFree().
  std::size_t SlotCapacity() const { return slabs_.size() * kSlabSize; }
  std::size_t SlotsFree() const { return free_slots_.size(); }

  /// Verifies the 4-ary heap order, the slot back-pointers, the handler
  /// ids, and the free-list accounting (every slot is either free or held
  /// by exactly one slot event in the heap). O(n); for tests.
  bool CheckHeapInvariant() const;

 private:
  /// Per-event state that never moves. The event's (when, seq) key lives
  /// in its heap entry, found through heap_pos.
  struct Slot {
    SimTime period = 0;  ///< 0 = one-shot
    std::uint32_t heap_pos = 0;
    std::uint32_t gen = 0;
    InlineEvent fn;
  };

  /// One heap element: the event's ordering key plus its slot id, or, with
  /// kHandlerTag set, its handler id and argument. 24 bytes either way:
  /// `arg` fills what would otherwise be padding.
  struct HeapEntry {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t id = kNoSlot;
    std::uint32_t arg = 0;
  };
  static_assert(sizeof(HeapEntry) == 24, "heap entries stay 24 bytes");

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Set in HeapEntry::id for a handler event; slot ids stay below it.
  static constexpr std::uint32_t kHandlerTag = 0x80000000u;
  static constexpr std::size_t kSlabShift = 8;  ///< 256 slots per slab
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabShift;

  Slot& SlotAt(std::uint32_t id) {
    return slabs_[id >> kSlabShift][id & (kSlabSize - 1)];
  }
  const Slot& SlotAt(std::uint32_t id) const {
    return slabs_[id >> kSlabShift][id & (kSlabSize - 1)];
  }

  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t id);
  /// Resolves a handle to a live slot id, or kNoSlot when stale.
  std::uint32_t Resolve(TimerHandle handle) const;

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  /// Stores `e` at `pos` and, for a slot event, points its slot back at it.
  void Place(std::uint32_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    if ((e.id & kHandlerTag) == 0) SlotAt(e.id).heap_pos = pos;
  }
  void HeapPush(const HeapEntry& e);
  void HeapRemove(std::uint32_t pos);
  /// Settle `e` into the heap starting from the vacant position `hole`,
  /// moving it toward the root (SiftUp) or toward the leaves (SiftDown).
  void SiftUp(std::uint32_t hole, const HeapEntry& e);
  void SiftDown(std::uint32_t hole, const HeapEntry& e);

  /// Pops and runs the front event. Pre: heap non-empty.
  void RunFront();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t events_cancelled_ = 0;
  std::uint64_t events_scheduled_ = 0;
  std::vector<std::unique_ptr<Slot[]>> slabs_;  ///< stable slot storage
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;  ///< 4-ary min-heap on (when, seq)
  /// Registered handlers; a deque so registering one from inside a running
  /// handler never moves the callable being executed.
  std::deque<EventHandler> handlers_;
  /// Slot id of the periodic event currently executing (kNoSlot otherwise);
  /// lets Cancel/Reschedule from inside the callback interact with the
  /// re-arm correctly.
  std::uint32_t running_slot_ = kNoSlot;
  bool running_cancelled_ = false;
};

}  // namespace topfull::des
