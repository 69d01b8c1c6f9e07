// Discrete-event simulation engine.
//
// A Simulation owns a time-ordered event queue. Components schedule
// callbacks at absolute or relative times; ties are broken by insertion
// order so runs are fully deterministic. The engine is single-threaded by
// design — determinism and reproducibility outrank parallel speed for the
// reproduction experiments.
//
// The queue is a keyed 4-ary min-heap ordered by (when, seq), with seq
// drawn from one counter. It holds three kinds of event:
//
//  - Closure events (ScheduleAt/ScheduleAfter/SchedulePeriodic) own a pool
//    slot whose address never moves; the slot carries the InlineEvent and,
//    for a periodic event, its period. They have no handle and cannot be
//    cancelled or moved. Producers: periodic ticks, hop retries, the
//    client-retry backoff, fault and autoscaler actions, cross-shard
//    message delivery.
//  - Handler events (ScheduleHandlerAt/ScheduleHandlerAfter) are for
//    frequent work. A handler is registered once (AddHandler); an event is
//    just {when, seq, handler, arg} in the heap entry, with no slot.
//    Producers: closed-loop think timers (arg = user), open-loop arrivals,
//    and pod service completions (arg = the pod's in-service record).
//  - Queue timers (AddTimerQueue/ArmTimer) are the cancellable timeouts.
//    Every timer of one queue has the queue's constant delay, so deadlines
//    arrive in the order they were armed and a queue is a FIFO: a doubly
//    linked list of pooled 32-byte nodes {when, seq, arg, prev, next, gen}.
//    Only the head is in the heap, as one entry carrying the head's exact
//    (when, seq). Cancel(handle) unlinks a node in O(1) and touches no heap
//    entry; when the queue's entry pops with a seq that is no longer the
//    head's (the head was cancelled), it is re-keyed on the current head
//    without firing anything. Producers: hop timeouts (one queue per
//    distinct delay, arg = attempt record) and client timeouts (one queue
//    per closed-loop pool, arg = user).
//
// The key lives in the heap entry (and, for a queue timer, in its node).
// seq is unique, so (when, seq) is a strict total order and the pop order
// does not depend on the heap's internal layout or on an event's kind.
// Callbacks are inline (fixed storage, no heap), so scheduling costs zero
// allocations once the slot and node pools and the heap have reached their
// high-water marks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/inline_function.hpp"
#include "common/sim_time.hpp"

namespace topfull::des {

/// Closure-event callback with guaranteed-inline capture storage. 112 bytes
/// leaves room for a std::function-based test callback; anything larger is
/// a compile error at the schedule site.
using InlineEvent = InlineFunction<void(), 112>;

/// Handler-event and queue-timer callback: registered once, invoked with
/// the `arg` of each event scheduled for it. 16 bytes holds a `this`
/// capture.
using EventHandler = InlineFunction<void(std::uint32_t arg), 16>;

class Simulation {
 public:
  using Callback = InlineEvent;

  /// Identity of an armed queue timer, valid until it fires or is
  /// cancelled. Timer nodes are reused; `gen` makes stale handles harmless
  /// (Cancel on a fired or cancelled handle returns false — ABA-safe).
  struct TimerHandle {
    std::uint32_t node = 0xffffffffu;
    std::uint32_t gen = 0;
    bool valid() const { return node != 0xffffffffu; }
  };

  /// Current simulation time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (>= Now()).
  void ScheduleAt(SimTime when, Callback fn);

  /// Schedules `fn` after `delay` (>= 0) from now.
  void ScheduleAfter(SimTime delay, Callback fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` every `period` (> 0), starting at `start`, until the
  /// simulation ends. The slot re-arms in place after each firing (no
  /// allocation), taking its next seq after the callback returns.
  void SchedulePeriodic(SimTime start, SimTime period, Callback fn);

  /// Registers a handler for ScheduleHandlerAt and returns its id. The
  /// handler lives as long as the Simulation; it may be registered at any
  /// time, including from inside a running event.
  std::uint32_t AddHandler(EventHandler fn);

  /// Schedules handler `handler` to run with `arg` at absolute time `when`
  /// (>= Now()). Same (when, seq) order and counters as ScheduleAt.
  void ScheduleHandlerAt(SimTime when, std::uint32_t handler, std::uint32_t arg);

  /// Schedules handler `handler` with `arg` after `delay` (>= 0) from now.
  void ScheduleHandlerAfter(SimTime delay, std::uint32_t handler,
                            std::uint32_t arg) {
    ScheduleHandlerAt(now_ + delay, handler, arg);
  }

  /// Registers a timer queue whose timers all fire `delay` (>= 0) after
  /// they are armed, running `fn(arg)`. Returns its id. Like a handler it
  /// lives as long as the Simulation and may be added from inside a
  /// running event.
  std::uint32_t AddTimerQueue(SimTime delay, EventHandler fn);

  /// Arms a timer on `queue`: it fires at Now() + the queue's delay with
  /// `arg`, ordered like any event scheduled now (its seq is drawn here).
  /// Counts as a scheduled event.
  TimerHandle ArmTimer(std::uint32_t queue, std::uint32_t arg);

  /// Cancels an armed queue timer in O(1). Returns false when the handle is
  /// stale (already fired, already cancelled, or never armed). Cancelling
  /// from inside any event, a timer handler of the same queue included, is
  /// allowed; a timer's own handle is already stale while its handler runs.
  bool Cancel(TimerHandle handle);

  /// Runs events until the queue is empty or time would exceed `end`.
  /// The clock is left at `end` afterwards.
  void RunUntil(SimTime end);

  /// Processes a single event; returns false if no event is pending.
  bool Step();

  /// Number of events processed so far. Cancelled timers never fire and
  /// are not counted here.
  std::uint64_t EventsProcessed() const { return events_processed_; }

  /// Number of queue timers cancelled before firing.
  std::uint64_t EventsCancelled() const { return events_cancelled_; }

  /// Number of ScheduleAt/ScheduleAfter/SchedulePeriodic,
  /// ScheduleHandlerAt/ScheduleHandlerAfter and ArmTimer calls (periodic
  /// re-arms not included).
  std::uint64_t EventsScheduled() const { return events_scheduled_; }

  /// Pending event count: closure and handler events plus armed queue
  /// timers. A periodic event counts while its callback runs (it stays at
  /// the heap's root until it re-arms).
  std::size_t PendingEvents() const {
    return heap_.size() - armed_queues_ + queued_timers_;
  }

  /// Timer slot slab pool occupancy (for the live telemetry plane): total
  /// closure-event slots ever carved from slabs, and how many are
  /// currently on the free list. In-use slots == SlotCapacity() -
  /// SlotsFree().
  std::size_t SlotCapacity() const { return slabs_.size() * kSlabSize; }
  std::size_t SlotsFree() const { return free_slots_.size(); }

  /// Verifies the 4-ary heap order, the handler and queue ids, the slot
  /// accounting (every slot is either free or held by exactly one closure
  /// event in the heap), every timer queue's links and key order, each
  /// non-empty queue's one heap entry (keyed at or before its head), and
  /// the node accounting. O(n); for tests.
  bool CheckHeapInvariant() const;

 private:
  /// Per-event state that never moves; the (when, seq) key lives in the
  /// event's heap entry.
  struct Slot {
    SimTime period = 0;  ///< 0 = one-shot
    InlineEvent fn;
  };

  /// One armed queue timer. `prev`/`next` are links: a node id, or
  /// kQueueLink | queue id for the list's end (a queue is circular through
  /// itself). A free node's `next` links the free list.
  struct TimerNode {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t arg = 0;
    std::uint32_t prev = 0;
    std::uint32_t next = 0;
    std::uint32_t gen = 0;
  };
  static_assert(sizeof(TimerNode) == 32, "timer nodes stay 32 bytes");

  struct TimerQueue {
    SimTime delay = 0;
    std::uint32_t head = 0;  ///< link to the oldest timer (self when empty)
    std::uint32_t tail = 0;  ///< link to the newest timer (self when empty)
    bool armed = false;      ///< the queue has its one entry in the heap
    EventHandler fn;
  };

  /// One heap element: the event's ordering key plus its slot id, or, with
  /// kHandlerTag set, its handler id and argument, or, with kQueueTag set,
  /// its timer queue id. 24 bytes in every case: `arg` fills what would
  /// otherwise be padding.
  struct HeapEntry {
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t id = 0;
    std::uint32_t arg = 0;
  };
  static_assert(sizeof(HeapEntry) == 24, "heap entries stay 24 bytes");

  /// Kind bits of HeapEntry::id; slot ids stay below both.
  static constexpr std::uint32_t kHandlerTag = 0x80000000u;
  static constexpr std::uint32_t kQueueTag = 0x40000000u;
  static constexpr std::uint32_t kKindMask = kHandlerTag | kQueueTag;
  /// Set in a TimerNode link that names a queue rather than a node.
  static constexpr std::uint32_t kQueueLink = 0x80000000u;
  static constexpr std::uint32_t kNoNode = 0xffffffffu;
  static constexpr std::size_t kSlabShift = 8;  ///< 256 slots/nodes per slab
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabShift;

  Slot& SlotAt(std::uint32_t id) {
    return slabs_[id >> kSlabShift][id & (kSlabSize - 1)];
  }
  const Slot& SlotAt(std::uint32_t id) const {
    return slabs_[id >> kSlabShift][id & (kSlabSize - 1)];
  }
  TimerNode& NodeAt(std::uint32_t id) {
    return node_slabs_[id >> kSlabShift][id & (kSlabSize - 1)];
  }
  const TimerNode& NodeAt(std::uint32_t id) const {
    return node_slabs_[id >> kSlabShift][id & (kSlabSize - 1)];
  }

  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t id);
  std::uint32_t AllocNode();
  void FreeNode(std::uint32_t id);
  /// Sets the successor of link `at` (a queue's head when `at` is a queue)
  /// and the predecessor of link `at` (its tail).
  void SetNext(std::uint32_t at, std::uint32_t to);
  void SetPrev(std::uint32_t at, std::uint32_t to);

  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  void HeapPush(const HeapEntry& e);
  void HeapPopFront();
  /// Settle `e` into the heap starting from the vacant position `hole`,
  /// moving it toward the root (SiftUp) or toward the leaves (SiftDown).
  void SiftUp(std::uint32_t hole, const HeapEntry& e);
  void SiftDown(std::uint32_t hole, const HeapEntry& e);

  /// Pops and runs the front event. Pre: heap non-empty. Returns false when
  /// the front was a timer queue's entry with nothing due (its head was
  /// cancelled): the entry is re-keyed or dropped and the clock stays put.
  bool RunFront();
  bool RunQueueFront(const HeapEntry& top);

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
  /// Timer queues, each allocated on its own for the same reason. Not a
  /// deque: that allocates a block in every Simulation, timers or not, and
  /// the shifted heap layout cost a timer-free benchmark run 0.2-0.4 MB of
  /// peak RSS.
  std::vector<std::unique_ptr<TimerQueue>> queues_;
  std::vector<std::unique_ptr<TimerNode[]>> node_slabs_;  ///< stable nodes
  std::uint32_t free_node_ = kNoNode;  ///< free-list head
  std::size_t free_nodes_ = 0;
  std::size_t queued_timers_ = 0;  ///< armed timers over all queues
  std::size_t armed_queues_ = 0;   ///< queue entries in the heap
};

}  // namespace topfull::des
