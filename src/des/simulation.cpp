#include "des/simulation.hpp"

#include <cassert>
#include <utility>

namespace topfull::des {

// --- Slot pool ---------------------------------------------------------------

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
  assert((id & kHandlerTag) == 0 && "slot ids must stay below the handler tag");
  return id;
}

void Simulation::FreeSlot(std::uint32_t id) {
  Slot& s = SlotAt(id);
  s.fn = nullptr;
  ++s.gen;  // invalidate every outstanding handle to this slot
  free_slots_.push_back(id);
}

std::uint32_t Simulation::Resolve(TimerHandle handle) const {
  if (!handle.valid()) return kNoSlot;
  if (handle.slot >= slabs_.size() * kSlabSize) return kNoSlot;
  return SlotAt(handle.slot).gen == handle.gen ? handle.slot : kNoSlot;
}

// --- Keyed 4-ary indexed heap ------------------------------------------------

void Simulation::SiftUp(std::uint32_t hole, const HeapEntry& e) {
  while (hole > 0) {
    const std::uint32_t parent = (hole - 1) >> 2;
    if (!Earlier(e, heap_[parent])) break;
    Place(hole, heap_[parent]);
    hole = parent;
  }
  Place(hole, e);
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
    Place(hole, heap_[best]);
    hole = best;
  }
  Place(hole, e);
}

void Simulation::HeapPush(const HeapEntry& e) {
  heap_.emplace_back();
  SiftUp(static_cast<std::uint32_t>(heap_.size() - 1), e);
}

void Simulation::HeapRemove(std::uint32_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail
  // The tail entry refills the hole; it may order either way relative to
  // the hole's neighbourhood.
  if (pos > 0 && Earlier(last, heap_[(pos - 1) >> 2])) {
    SiftUp(pos, last);
  } else {
    SiftDown(pos, last);
  }
}

// --- Scheduling --------------------------------------------------------------

Simulation::TimerHandle Simulation::ScheduleAt(SimTime when, Callback fn) {
  assert(when >= now_ && "cannot schedule in the past");
  const std::uint32_t id = AllocSlot();
  Slot& s = SlotAt(id);
  s.period = 0;
  s.fn = std::move(fn);
  HeapPush(HeapEntry{when < now_ ? now_ : when, next_seq_++, id});
  ++events_scheduled_;
  return TimerHandle{id, s.gen};
}

Simulation::TimerHandle Simulation::SchedulePeriodic(SimTime start, SimTime period,
                                                     Callback fn) {
  assert(period > 0 && "periodic events need a positive period");
  TimerHandle handle = ScheduleAt(start, std::move(fn));
  SlotAt(handle.slot).period = period;
  return handle;
}

std::uint32_t Simulation::AddHandler(EventHandler fn) {
  const auto id = static_cast<std::uint32_t>(handlers_.size());
  assert(id < (kNoSlot & ~kHandlerTag) && "too many handlers");
  handlers_.push_back(std::move(fn));
  return id;
}

void Simulation::ScheduleHandlerAt(SimTime when, std::uint32_t handler,
                                   std::uint32_t arg) {
  assert(when >= now_ && "cannot schedule in the past");
  assert(handler < handlers_.size() && "unknown handler");
  HeapPush(HeapEntry{when < now_ ? now_ : when, next_seq_++, handler | kHandlerTag, arg});
  ++events_scheduled_;
}

bool Simulation::Cancel(TimerHandle handle) {
  const std::uint32_t id = Resolve(handle);
  if (id == kNoSlot) return false;
  if (id == running_slot_) {
    // A periodic event cancelling itself mid-callback: suppress the re-arm;
    // RunFront frees the slot when the callback returns.
    if (running_cancelled_) return false;
    running_cancelled_ = true;
    ++events_cancelled_;
    return true;
  }
  HeapRemove(SlotAt(id).heap_pos);
  FreeSlot(id);
  ++events_cancelled_;
  return true;
}

bool Simulation::Reschedule(TimerHandle handle, SimTime when) {
  const std::uint32_t id = Resolve(handle);
  if (id == kNoSlot || id == running_slot_) return false;
  const std::uint32_t pos = SlotAt(id).heap_pos;
  // Same tie-break position as cancel + re-schedule: a fresh seq, so the
  // new key is later than the old one unless `when` moved earlier.
  const HeapEntry e{when < now_ ? now_ : when, next_seq_++, id};
  if (e.when < heap_[pos].when) {
    SiftUp(pos, e);
  } else {
    SiftDown(pos, e);
  }
  return true;
}

// --- Execution ---------------------------------------------------------------

void Simulation::RunFront() {
  const std::uint32_t id = heap_[0].id;
  now_ = heap_[0].when;
  ++events_processed_;
  if ((id & kHandlerTag) != 0) {
    // Handler event: nothing to free, nothing to re-arm.
    const std::uint32_t arg = heap_[0].arg;
    HeapRemove(0);
    handlers_[id & ~kHandlerTag](arg);
    return;
  }
  Slot& s = SlotAt(id);
  if (s.period == 0) {
    // One-shot: free the slot before running so the callback can observe a
    // consistent queue (its own handle is already dead, like the old
    // pop-then-run engine).
    InlineEvent fn = std::move(s.fn);
    HeapRemove(0);
    FreeSlot(id);
    fn();
    return;
  }
  // Periodic: run, then re-arm the same slot in place. The fresh seq is
  // allocated AFTER the callback returns, matching the old self-re-arming
  // event's tie-break position relative to events the callback scheduled.
  running_slot_ = id;
  running_cancelled_ = false;
  s.fn();
  running_slot_ = kNoSlot;
  if (running_cancelled_) {
    running_cancelled_ = false;
    HeapRemove(s.heap_pos);
    FreeSlot(id);
    return;
  }
  // Only sift down: the re-armed event moved later in (when, seq) order.
  SiftDown(s.heap_pos, HeapEntry{now_ + s.period, next_seq_++, id});
}

void Simulation::RunUntil(SimTime end) {
  while (!heap_.empty() && heap_[0].when <= end) RunFront();
  if (now_ < end) now_ = end;
}

bool Simulation::Step() {
  if (heap_.empty()) return false;
  RunFront();
  return true;
}

// --- Invariant check (tests) -------------------------------------------------

bool Simulation::CheckHeapInvariant() const {
  const std::size_t total = slabs_.size() * kSlabSize;
  std::size_t slot_events = 0;
  for (std::uint32_t pos = 0; pos < heap_.size(); ++pos) {
    const HeapEntry& e = heap_[pos];
    if (e.seq >= next_seq_) return false;
    if (pos > 0 && Earlier(e, heap_[(pos - 1) >> 2])) return false;
    if ((e.id & kHandlerTag) != 0) {
      if ((e.id & ~kHandlerTag) >= handlers_.size()) return false;
      continue;
    }
    ++slot_events;
    if (e.id >= total) return false;
    const Slot& s = SlotAt(e.id);
    if (s.heap_pos != pos) return false;
    if (!s.fn) return false;
  }
  return slot_events + free_slots_.size() == total;
}

}  // namespace topfull::des
