#include "des/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace topfull::des {

// --- Slot and node pools -----------------------------------------------------

std::uint32_t Simulation::AllocSlot() {
  if (free_slots_.empty()) {
    const auto base = static_cast<std::uint32_t>(slabs_.size() * kSlabSize);
    slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
    free_slots_.reserve(slabs_.size() * kSlabSize);
    // Reverse order so slot ids are handed out ascending.
    for (std::size_t i = kSlabSize; i > 0; --i) {
      free_slots_.push_back(base + static_cast<std::uint32_t>(i - 1));
    }
  }
  const std::uint32_t id = free_slots_.back();
  free_slots_.pop_back();
  assert((id & kKindMask) == 0 && "slot ids must stay below the kind tags");
  return id;
}

void Simulation::FreeSlot(std::uint32_t id) {
  SlotAt(id).fn = nullptr;
  free_slots_.push_back(id);
}

std::uint32_t Simulation::AllocNode() {
  if (free_node_ == kNoNode) {
    const auto base = static_cast<std::uint32_t>(node_slabs_.size() * kSlabSize);
    assert((base & kQueueLink) == 0 && "node ids must stay below the queue link");
    node_slabs_.push_back(std::make_unique<TimerNode[]>(kSlabSize));
    TimerNode* slab = node_slabs_.back().get();
    // Linked ascending so node ids are handed out ascending.
    for (std::size_t i = 0; i < kSlabSize; ++i) {
      slab[i].next = i + 1 < kSlabSize ? base + static_cast<std::uint32_t>(i + 1)
                                       : kNoNode;
    }
    free_node_ = base;
    free_nodes_ += kSlabSize;
  }
  const std::uint32_t id = free_node_;
  free_node_ = NodeAt(id).next;
  --free_nodes_;
  return id;
}

void Simulation::FreeNode(std::uint32_t id) {
  TimerNode& n = NodeAt(id);
  ++n.gen;  // invalidate every outstanding handle to this node
  n.next = free_node_;
  free_node_ = id;
  ++free_nodes_;
}

void Simulation::SetNext(std::uint32_t at, std::uint32_t to) {
  if ((at & kQueueLink) != 0) {
    queues_[at & ~kQueueLink]->head = to;
  } else {
    NodeAt(at).next = to;
  }
}

void Simulation::SetPrev(std::uint32_t at, std::uint32_t to) {
  if ((at & kQueueLink) != 0) {
    queues_[at & ~kQueueLink]->tail = to;
  } else {
    NodeAt(at).prev = to;
  }
}

// --- Keyed 4-ary heap --------------------------------------------------------

void Simulation::SiftUp(std::uint32_t hole, const HeapEntry& e) {
  while (hole > 0) {
    const std::uint32_t parent = (hole - 1) >> 2;
    if (!Earlier(e, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void Simulation::SiftDown(std::uint32_t hole, const HeapEntry& e) {
  const auto n = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    const std::uint32_t first_child = (hole << 2) + 1;
    if (first_child >= n) break;
    std::uint32_t best = first_child;
    const std::uint32_t last_child = first_child + 3 < n ? first_child + 3 : n - 1;
    for (std::uint32_t c = first_child + 1; c <= last_child; ++c) {
      if (Earlier(heap_[c], heap_[best])) best = c;
    }
    if (!Earlier(heap_[best], e)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = e;
}

void Simulation::HeapPush(const HeapEntry& e) {
  heap_.emplace_back();
  SiftUp(static_cast<std::uint32_t>(heap_.size() - 1), e);
}

void Simulation::HeapPopFront() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0, last);
}

void Simulation::ReplaceFront(const HeapEntry& e) {
  if (e.when < near_end_) {
    SiftDown(0, e);
    return;
  }
  HeapPopFront();
  FarPush(e);
}

// --- Far part: calendar ring and overflow heap -------------------------------

void Simulation::GrowFarPool() {
  // An eighth of the pool at a time (at least one slab): the number of
  // chunks in use wanders with how full each bucket's last chunk is, and
  // the headroom stops a deep steady state from adding a slab now and then.
  const std::size_t grow = std::max<std::size_t>(1, far_slabs_.size() / 8);
  const auto base = static_cast<std::uint32_t>(far_slabs_.size() * kSlabSize);
  assert(base + grow * kSlabSize < kNoNode && "too many far chunks");
  for (std::size_t s = 0; s < grow; ++s) {
    far_slabs_.push_back(std::make_unique<FarChunk[]>(kSlabSize));
  }
  // Linked ascending so chunk ids are handed out ascending.
  const auto end = static_cast<std::uint32_t>(far_slabs_.size() * kSlabSize);
  for (std::uint32_t id = base; id < end; ++id) {
    FarAt(id).next = id + 1 < end ? id + 1 : kNoNode;
  }
  free_far_ = base;
}

void Simulation::RingInsert(const HeapEntry& e) {
  std::uint32_t& head = ring_[RingSlot(e.when)];
  if (head == kNoNode || FarAt(head).count == kChunkEntries) {
    if (free_far_ == kNoNode) GrowFarPool();
    const std::uint32_t id = free_far_;
    FarChunk& c = FarAt(id);
    free_far_ = c.next;
    c.next = head;
    c.count = 0;
    head = id;
  }
  // Buckets are unordered: a refill sorts them through the near heap.
  FarChunk& c = FarAt(head);
  c.e[c.count++] = e;
  ++ring_entries_;
}

void Simulation::FarPush(const HeapEntry& e) {
  if (InRing(e.when)) {
    RingInsert(e);
    return;
  }
  overflow_.push_back(e);
  std::push_heap(overflow_.begin(), overflow_.end(), Later);
}

void Simulation::PullOverflow() {
  while (!overflow_.empty() && InRing(overflow_.front().when)) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later);
    RingInsert(overflow_.back());
    overflow_.pop_back();
  }
}

void Simulation::PourBucket() {
  if (ring_entries_ == 0) {
    // Nothing within the ring's span: start it at the earliest overflow
    // entry's bucket instead of stepping through empty buckets.
    near_end_ = overflow_.front().when & ~(kBucketWidth - 1);
    PullOverflow();
  }
  // Pour the ring's first bucket and move the boundary past it; the slot it
  // frees now covers the bucket just beyond the ring's old span.
  std::uint32_t& head = ring_[RingSlot(near_end_)];
  for (std::uint32_t at = head; at != kNoNode;) {
    FarChunk& c = FarAt(at);
    for (std::uint32_t k = 0; k < c.count; ++k) HeapPush(c.e[k]);
    ring_entries_ -= c.count;
    const std::uint32_t next = c.next;
    c.next = free_far_;
    free_far_ = at;
    at = next;
  }
  head = kNoNode;
  near_end_ += kBucketWidth;
  PullOverflow();
}

bool Simulation::Refill() {
  while (heap_.size() < kRefillBatch && (ring_entries_ > 0 || !overflow_.empty())) {
    PourBucket();
  }
  if (ring_entries_ + overflow_.size() < kShallowFar) {
    // Staging a shallow far part costs more than a heap of its size: pour
    // kShallowBuckets more buckets and move the boundary past them, so the
    // near heap takes every event due that soon, as one plain heap would.
    // The boundary may skip empty buckets: every overflow entry lies
    // beyond the ring's span.
    const SimTime end = near_end_ + kShallowBuckets * kBucketWidth;
    while (ring_entries_ > 0 && near_end_ < end) PourBucket();
    near_end_ = end;
    PullOverflow();
  }
  return !heap_.empty();
}

// --- Scheduling --------------------------------------------------------------

void Simulation::ScheduleAt(SimTime when, Callback fn) {
  assert(when >= now_ && "cannot schedule in the past");
  const std::uint32_t id = AllocSlot();
  Slot& s = SlotAt(id);
  s.period = 0;
  s.fn = std::move(fn);
  Push(HeapEntry{when < now_ ? now_ : when, next_seq_++, id, 0});
  ++events_scheduled_;
}

void Simulation::SchedulePeriodic(SimTime start, SimTime period, Callback fn) {
  assert(period > 0 && "periodic events need a positive period");
  assert(start >= now_ && "cannot schedule in the past");
  const std::uint32_t id = AllocSlot();
  Slot& s = SlotAt(id);
  s.period = period;
  s.fn = std::move(fn);
  Push(HeapEntry{start < now_ ? now_ : start, next_seq_++, id, 0});
  ++events_scheduled_;
}

std::uint32_t Simulation::AddHandler(EventHandler fn) {
  const auto id = static_cast<std::uint32_t>(handlers_.size());
  assert(id < kQueueTag && "too many handlers");
  handlers_.push_back(std::move(fn));
  return id;
}

void Simulation::ScheduleHandlerAt(SimTime when, std::uint32_t handler,
                                   std::uint32_t arg) {
  assert(when >= now_ && "cannot schedule in the past");
  assert(handler < handlers_.size() && "unknown handler");
  Push(HeapEntry{when < now_ ? now_ : when, next_seq_++, handler | kHandlerTag, arg});
  ++events_scheduled_;
}

std::uint32_t Simulation::AddTimerQueue(SimTime delay, EventHandler fn) {
  assert(delay >= 0 && "timer queues need a non-negative delay");
  const auto id = static_cast<std::uint32_t>(queues_.size());
  assert(id < kQueueTag && "too many timer queues");
  TimerQueue& q = *queues_.emplace_back(std::make_unique<TimerQueue>());
  q.delay = delay < 0 ? 0 : delay;
  q.head = q.tail = kQueueLink | id;
  q.fn = std::move(fn);
  return id;
}

Simulation::TimerHandle Simulation::ArmTimer(std::uint32_t queue, std::uint32_t arg) {
  assert(queue < queues_.size() && "unknown timer queue");
  TimerQueue& q = *queues_[queue];
  const std::uint32_t id = AllocNode();
  TimerNode& n = NodeAt(id);
  n.when = now_ + q.delay;
  n.seq = next_seq_++;
  n.arg = arg;
  // The clock never runs backwards and the delay is constant, so appending
  // keeps the list sorted by (when, seq).
  assert(((q.tail & kQueueLink) != 0 || NodeAt(q.tail).when <= n.when) &&
         "timer queue out of order");
  n.prev = q.tail;
  n.next = kQueueLink | queue;
  SetNext(q.tail, id);
  q.tail = id;
  ++queued_timers_;
  ++events_scheduled_;
  if (!q.armed) {
    // An entry already queued is keyed at or before this timer (it was
    // armed for an older head), so it re-keys onto the list when it pops.
    q.armed = true;
    ++armed_queues_;
    Push(HeapEntry{n.when, n.seq, queue | kQueueTag, 0});
  }
  return TimerHandle{id, n.gen};
}

bool Simulation::Cancel(TimerHandle handle) {
  if (!handle.valid() || handle.node >= node_slabs_.size() * kSlabSize) return false;
  TimerNode& n = NodeAt(handle.node);
  if (n.gen != handle.gen) return false;
  // Unlinking leaves the queue's heap entry alone: if it was keyed on this
  // node, it pops stale and re-keys onto the next head (RunQueueFront).
  SetNext(n.prev, n.next);
  SetPrev(n.next, n.prev);
  FreeNode(handle.node);
  --queued_timers_;
  ++events_cancelled_;
  return true;
}

// --- Execution ---------------------------------------------------------------

bool Simulation::RunFront() {
  const HeapEntry top = heap_[0];
  if ((top.id & kQueueTag) != 0) return RunQueueFront(top);
  now_ = top.when;
  ++events_processed_;
  if ((top.id & kHandlerTag) != 0) {
    HeapPopFront();
    handlers_[top.id & ~kHandlerTag](top.arg);
    return true;
  }
  Slot& s = SlotAt(top.id);
  if (s.period == 0) {
    // One-shot: free the slot before running so the callback sees a queue
    // without its own event, like the pop-then-run engine it replaced.
    InlineEvent fn = std::move(s.fn);
    HeapPopFront();
    FreeSlot(top.id);
    fn();
    return true;
  }
  // Periodic: run at the root, then re-key in place. Everything the
  // callback schedules draws a later seq at a time >= now_, so the entry is
  // still the root; its fresh seq is drawn AFTER the callback, matching the
  // old self-re-arming event's tie-break position.
  s.fn();
  assert(heap_[0].seq == top.seq && "a periodic event left the heap's root");
  ReplaceFront(HeapEntry{now_ + s.period, next_seq_++, top.id, 0});
  return true;
}

bool Simulation::RunQueueFront(const HeapEntry& top) {
  const std::uint32_t id = top.id & ~kQueueTag;
  TimerQueue& q = *queues_[id];
  const std::uint32_t head = q.head;
  if ((head & kQueueLink) != 0) {
    // Every timer of the queue was cancelled.
    q.armed = false;
    --armed_queues_;
    HeapPopFront();
    return false;
  }
  TimerNode& n = NodeAt(head);
  if (n.seq != top.seq) {
    // The head this entry was keyed on was cancelled; the current head is
    // later in (when, seq), so the entry can only move toward the leaves
    // or into the far part.
    ReplaceFront(HeapEntry{n.when, n.seq, top.id, 0});
    return false;
  }
  now_ = n.when;
  ++events_processed_;
  const std::uint32_t arg = n.arg;
  SetNext(n.prev, n.next);
  SetPrev(n.next, n.prev);
  FreeNode(head);
  --queued_timers_;
  // Re-key on the next head (or drop the entry) before the handler runs, so
  // the handler sees a consistent queue and may arm or cancel freely.
  if ((q.head & kQueueLink) == 0) {
    const TimerNode& next = NodeAt(q.head);
    ReplaceFront(HeapEntry{next.when, next.seq, top.id, 0});
  } else {
    q.armed = false;
    --armed_queues_;
    HeapPopFront();
  }
  q.fn(arg);
  return true;
}

void Simulation::RunUntil(SimTime end) {
  while ((!heap_.empty() || Refill()) && heap_[0].when <= end) RunFront();
  if (now_ < end) now_ = end;
}

bool Simulation::Step() {
  while (!heap_.empty() || Refill()) {
    if (RunFront()) return true;
  }
  return false;
}

// --- Invariant check (tests) -------------------------------------------------

bool Simulation::CheckHeapInvariant() const {
  const std::size_t total_slots = slabs_.size() * kSlabSize;
  const std::size_t total_nodes = node_slabs_.size() * kSlabSize;
  const std::size_t total_far = far_slabs_.size() * kSlabSize;
  if (near_end_ % kBucketWidth != 0) return false;
  std::vector<bool> slot_held(total_slots, false);
  std::vector<const HeapEntry*> queue_entry(queues_.size(), nullptr);
  std::size_t slot_events = 0;
  std::size_t entries = 0;
  std::size_t armed = 0;
  // Checks one entry of any part: its id and kind, and the slot and queue
  // accounting.
  const auto visit = [&](const HeapEntry& e) {
    ++entries;
    if (e.seq >= next_seq_) return false;
    if ((e.id & kHandlerTag) != 0) return (e.id & ~kHandlerTag) < handlers_.size();
    if ((e.id & kQueueTag) != 0) {
      const std::uint32_t q = e.id & ~kQueueTag;
      if (q >= queues_.size() || queue_entry[q] != nullptr) return false;
      queue_entry[q] = &e;
      ++armed;
      return true;
    }
    if (e.id >= total_slots || slot_held[e.id]) return false;
    slot_held[e.id] = true;
    ++slot_events;
    return static_cast<bool>(SlotAt(e.id).fn);
  };
  // Near part: heap order, and every entry before the boundary.
  for (std::uint32_t pos = 0; pos < heap_.size(); ++pos) {
    const HeapEntry& e = heap_[pos];
    if (!visit(e) || e.when >= near_end_) return false;
    if (pos > 0 && Earlier(e, heap_[(pos - 1) >> 2])) return false;
  }
  // Ring: every chunk non-empty, every entry at or after the boundary,
  // within the span, in the bucket of its own time.
  std::size_t in_ring = 0;
  std::size_t ring_chunks = 0;
  for (std::size_t slot = 0; slot < kRingSize; ++slot) {
    for (std::uint32_t at = ring_[slot]; at != kNoNode; at = FarAt(at).next) {
      if (at >= total_far || ++ring_chunks > total_far) return false;
      const FarChunk& c = FarAt(at);
      if (c.count == 0 || c.count > kChunkEntries) return false;
      for (std::uint32_t k = 0; k < c.count; ++k) {
        const HeapEntry& e = c.e[k];
        if (!visit(e) || e.when < near_end_ || !InRing(e.when) || RingSlot(e.when) != slot) {
          return false;
        }
      }
      in_ring += c.count;
    }
  }
  if (in_ring != ring_entries_) return false;
  // Overflow: heap order, and every entry beyond the ring's span.
  if (!std::is_heap(overflow_.begin(), overflow_.end(), Later)) return false;
  for (const HeapEntry& e : overflow_) {
    if (!visit(e) || e.when < near_end_ || InRing(e.when)) return false;
  }
  if (slot_events + free_slots_.size() != total_slots) return false;
  if (armed != armed_queues_) return false;
  std::size_t free_far = 0;
  for (std::uint32_t at = free_far_; at != kNoNode; at = FarAt(at).next) {
    if (at >= total_far || ++free_far > total_far) return false;
  }
  if (ring_chunks + free_far != total_far) return false;

  std::size_t linked = 0;
  for (std::uint32_t q = 0; q < queues_.size(); ++q) {
    const TimerQueue& tq = *queues_[q];
    const std::uint32_t self = kQueueLink | q;
    if (tq.armed != (queue_entry[q] != nullptr)) return false;
    // Walk the list: links agree both ways, keys rise, nothing loops.
    std::uint32_t prev = self;
    const TimerNode* last = nullptr;
    for (std::uint32_t at = tq.head; at != self;) {
      if ((at & kQueueLink) != 0 || at >= total_nodes) return false;
      if (++linked > total_nodes) return false;
      const TimerNode& n = NodeAt(at);
      if (n.prev != prev || n.seq >= next_seq_) return false;
      if (last != nullptr && (n.when < last->when || n.seq <= last->seq)) return false;
      last = &n;
      prev = at;
      at = n.next;
    }
    if (tq.tail != prev) return false;
    if (last == nullptr) continue;
    // A non-empty queue has its entry, keyed exactly on the head or, when
    // the head it was keyed on was cancelled, strictly before the head.
    const HeapEntry* e = queue_entry[q];
    if (e == nullptr) return false;
    const TimerNode& head = NodeAt(tq.head);
    if (e->seq == head.seq ? e->when != head.when
                           : !Earlier(*e, HeapEntry{head.when, head.seq, 0, 0})) {
      return false;
    }
  }
  if (linked != queued_timers_) return false;
  std::size_t free_count = 0;
  for (std::uint32_t at = free_node_; at != kNoNode; at = NodeAt(at).next) {
    if (at >= total_nodes || ++free_count > total_nodes) return false;
  }
  if (free_count != free_nodes_ || linked + free_count != total_nodes) return false;
  return PendingEvents() == entries - armed + linked;
}

}  // namespace topfull::des
