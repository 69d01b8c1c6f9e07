// Discrete-event simulation engine.
//
// A Simulation owns a time-ordered event queue. Components schedule
// callbacks at absolute or relative times; ties are broken by insertion
// order so runs are fully deterministic. The engine is single-threaded by
// design — determinism and reproducibility outrank parallel speed for the
// reproduction experiments.
//
// The queue holds {when, seq, id, arg} entries ordered by (when, seq), with
// seq drawn from one counter. It is split by `when` at a bucket boundary,
// near_end_:
//
//  - the near part is a keyed 4-ary min-heap holding every entry with
//    when < near_end_;
//  - the far part holds every entry with when >= near_end_: a calendar ring
//    of kRingSize buckets, each kBucketWidth us wide and covering the
//    times [near_end_, near_end_ + kRingSize * kBucketWidth), plus an
//    overflow min-heap for entries beyond the ring's span.
//
// Every near entry is earlier than every far entry, so the near heap's root
// is the next event whenever the near heap is non-empty. When it runs
// empty, whole buckets are poured into it in order, moving near_end_ one
// bucket at a time, until it holds kRefillBatch entries or the far part is
// empty; each step pulls the overflow entries that come within the ring's
// span, and an empty ring jumps straight to the overflow's earliest bucket.
// Think timers 1 s out then cost a ring insert and a sift through a heap of
// a few dozen entries instead of a sift through all ~2e4 pending events.
//
// Three choices keep shallow queues as cheap as one heap:
//  - Pouring a batch rather than one bucket spares a shallow open-loop
//    queue a bucket round trip on every event.
//  - A refill that leaves fewer than kShallowFar far entries also pours the
//    next kShallowBuckets (262 ms) and moves the boundary past them, so
//    events due that soon go straight into the heap. Staging costs more
//    than it saves on a heap of a few hundred entries.
//  - A bucket is a singly linked list of pooled chunks of kChunkEntries
//    entries. A vector per bucket would keep its high-water capacity in
//    every one of the 8192 slots; one node per entry would make a pour
//    chase a pointer per entry.
//
// The queue holds three kinds of event:
//
//  - Closure events (ScheduleAt/ScheduleAfter/SchedulePeriodic) own a pool
//    slot whose address never moves; the slot carries the InlineEvent and,
//    for a periodic event, its period. They have no handle and cannot be
//    cancelled or moved. Producers: periodic ticks, hop retries, the
//    client-retry backoff, fault and autoscaler actions.
//  - Handler events (ScheduleHandlerAt/ScheduleHandlerAfter) are for
//    frequent work. A handler is registered once (AddHandler); an event is
//    just {when, seq, handler, arg} in the queue entry, with no slot.
//    Producers: closed-loop think timers (arg = user), open-loop arrivals,
//    and pod service completions (arg = the pod's in-service record).
//  - Queue timers (AddTimerQueue/ArmTimer) are the cancellable timeouts.
//    Every timer of one queue has the queue's constant delay, so deadlines
//    arrive in the order they were armed and a queue is a FIFO: a doubly
//    linked list of pooled 32-byte nodes {when, seq, arg, prev, next, gen}.
//    Only the head is in the event queue, as one entry carrying the head's
//    exact (when, seq). Cancel(handle) unlinks a node in O(1) and touches
//    no entry; when the queue's entry pops with a seq that is no longer the
//    head's (the head was cancelled), it is re-keyed on the current head
//    without firing anything. Producers: hop timeouts (one queue per
//    distinct delay, arg = attempt record) and client timeouts (one queue
//    per closed-loop pool, arg = user).
//
// The key lives in the queue entry (and, for a queue timer, in its node).
// seq is unique, so (when, seq) is a strict total order and the pop order
// does not depend on the heap's internal layout, on where an entry waited
// or on an event's kind. A periodic re-arm and a queue entry's re-key go
// through the same near/far partition as a new event. Callbacks are inline
// (fixed storage, no heap), so scheduling costs zero allocations once the
// slot and node pools, the heaps and the ring have reached their
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
    return heap_.size() + ring_entries_ + overflow_.size() - armed_queues_ +
           queued_timers_;
  }

  /// Timer slot slab pool occupancy (for the live telemetry plane): total
  /// closure-event slots ever carved from slabs, and how many are
  /// currently on the free list. In-use slots == SlotCapacity() -
  /// SlotsFree().
  std::size_t SlotCapacity() const { return slabs_.size() * kSlabSize; }
  std::size_t SlotsFree() const { return free_slots_.size(); }

  /// Verifies the near/far partition (every near entry is before near_end_,
  /// every ring entry sits in its own bucket within the ring's span, every
  /// overflow entry lies beyond it), the order of both heaps, the handler
  /// and queue ids, the slot accounting (every slot is either free or held
  /// by exactly one closure event), every timer queue's links and key
  /// order, each non-empty queue's one entry (keyed at or before its head),
  /// the timer-node and ring-chunk accounting, and PendingEvents(). O(n);
  /// for tests.
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

  /// One queue entry: the event's ordering key plus its slot id, or, with
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

  /// Far entries waiting in one ring bucket, up to kChunkEntries of them;
  /// `next` links the bucket's chunks, newest first, or, for a free chunk,
  /// the free list.
  static constexpr std::uint32_t kChunkEntries = 10;
  struct FarChunk {
    HeapEntry e[kChunkEntries];
    std::uint32_t next = 0;
    std::uint32_t count = 0;
  };
  static_assert(sizeof(FarChunk) == 248, "far chunks stay 248 bytes");

  /// Kind bits of HeapEntry::id; slot ids stay below both.
  static constexpr std::uint32_t kHandlerTag = 0x80000000u;
  static constexpr std::uint32_t kQueueTag = 0x40000000u;
  static constexpr std::uint32_t kKindMask = kHandlerTag | kQueueTag;
  /// Set in a TimerNode link that names a queue rather than a node.
  static constexpr std::uint32_t kQueueLink = 0x80000000u;
  static constexpr std::uint32_t kNoNode = 0xffffffffu;
  static constexpr std::size_t kSlabShift = 8;  ///< 256 slots/nodes per slab
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabShift;
  /// Calendar ring geometry: 1.024 ms buckets, 8192 of them, so the ring
  /// spans about 8.4 s; refills pour buckets until the near heap holds 32.
  static constexpr int kBucketShift = 10;
  static constexpr SimTime kBucketWidth = SimTime{1} << kBucketShift;
  static constexpr std::size_t kRingSize = std::size_t{1} << 13;
  static constexpr std::size_t kRefillBatch = 32;
  /// A refill that leaves fewer far entries than kShallowFar pours
  /// kShallowBuckets (262 ms) more buckets and skips the boundary past
  /// them.
  static constexpr std::size_t kShallowFar = 1024;
  static constexpr SimTime kShallowBuckets = 256;

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
  FarChunk& FarAt(std::uint32_t id) {
    return far_slabs_[id >> kSlabShift][id & (kSlabSize - 1)];
  }
  const FarChunk& FarAt(std::uint32_t id) const {
    return far_slabs_[id >> kSlabShift][id & (kSlabSize - 1)];
  }
  /// Ring slot of the bucket holding time `when`.
  static std::size_t RingSlot(SimTime when) {
    return static_cast<std::size_t>(when >> kBucketShift) & (kRingSize - 1);
  }
  /// True when `when` (>= near_end_) falls within the ring's span.
  bool InRing(SimTime when) const {
    return static_cast<std::uint64_t>((when >> kBucketShift) - (near_end_ >> kBucketShift)) <
           kRingSize;
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
  static bool Later(const HeapEntry& a, const HeapEntry& b) { return Earlier(b, a); }

  /// Adds `e` to the near heap or to the far part, by its `when`.
  void Push(const HeapEntry& e) {
    if (e.when < near_end_) {
      HeapPush(e);
    } else {
      FarPush(e);
    }
  }
  /// Replaces the near heap's root with `e` (no earlier than the root),
  /// which stays near or moves to the far part by its `when`.
  void ReplaceFront(const HeapEntry& e);
  void FarPush(const HeapEntry& e);
  /// Adds slabs to the empty ring chunk pool. Pre: free_far_ == kNoNode.
  void GrowFarPool();
  void RingInsert(const HeapEntry& e);
  /// Moves the overflow entries that fall within the ring's span into it.
  void PullOverflow();
  /// Pours the ring's first bucket into the near heap and moves near_end_
  /// past it, first jumping an empty ring to the overflow's earliest
  /// bucket. Pre: the far part is non-empty.
  void PourBucket();
  /// Pours far buckets into the empty near heap until it holds
  /// kRefillBatch entries or the far part is empty, then moves a shallow
  /// far part's boundary kShallowBuckets ahead. Returns false when nothing
  /// is pending at all.
  bool Refill();

  void HeapPush(const HeapEntry& e);
  void HeapPopFront();
  /// Settle `e` into the heap starting from the vacant position `hole`,
  /// moving it toward the root (SiftUp) or toward the leaves (SiftDown).
  void SiftUp(std::uint32_t hole, const HeapEntry& e);
  void SiftDown(std::uint32_t hole, const HeapEntry& e);

  /// Pops and runs the front event. Pre: near heap non-empty. Returns false
  /// when the front was a timer queue's entry with nothing due (its head
  /// was cancelled): the entry is re-keyed or dropped and the clock stays
  /// put.
  bool RunFront();
  bool RunQueueFront(const HeapEntry& top);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t events_cancelled_ = 0;
  std::uint64_t events_scheduled_ = 0;
  std::vector<std::unique_ptr<Slot[]>> slabs_;  ///< stable slot storage
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;  ///< near part: 4-ary min-heap on (when, seq)
  /// Near/far boundary, a multiple of kBucketWidth; the ring's first
  /// bucket starts here.
  SimTime near_end_ = 0;
  /// Far part: kRingSize bucket list heads (kNoNode = empty); entries in
  /// the ring; entries past its span.
  std::vector<std::uint32_t> ring_ = std::vector<std::uint32_t>(kRingSize, kNoNode);
  std::size_t ring_entries_ = 0;
  std::vector<HeapEntry> overflow_;  ///< binary min-heap on (when, seq)
  std::vector<std::unique_ptr<FarChunk[]>> far_slabs_;  ///< ring chunk pool
  std::uint32_t free_far_ = kNoNode;  ///< free-list head
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
