// Slab allocator with a free list: pooled fixed-type records for the DES
// hot path.
//
// Records live in slabs of kSlabSize so their addresses are stable for the
// whole pool lifetime (callbacks capture raw pointers into the pool; a
// growing pool must never move live records). Freed records go on a LIFO
// free list and are handed back, still constructed, by the next Alloc — the
// caller re-initialises the fields it uses and owns any generation counter
// that guards against stale handles (see sim::Application's attempt records).
//
// A record type with a `pool_index` member gets its index written once, when
// its slab is carved; At(index) finds the record again with a shift and a
// mask, so a 32-bit event argument or job token can name it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace topfull {

template <typename T>
class SlabPool {
 public:
  static constexpr std::size_t kSlabShift = 8;
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabShift;

  /// Returns a record, reusing the most recently freed one when available.
  /// The record keeps whatever state it had when freed; callers reset the
  /// fields they rely on (and must NOT reset generation counters).
  T* Alloc() {
    if (free_.empty()) Grow();
    T* p = free_.back();
    free_.pop_back();
    ++live_;
    return p;
  }

  /// Returns `p` to the pool. `p` must have come from this pool's Alloc.
  void Free(T* p) {
    assert(live_ > 0);
    --live_;
    free_.push_back(p);
  }

  /// The record whose `pool_index` is `index`.
  T* At(std::uint32_t index) {
    assert(index < capacity());
    return &slabs_[index >> kSlabShift][index & (kSlabSize - 1)];
  }

  /// Records currently handed out.
  std::size_t live() const { return live_; }
  /// Total records ever created (live + free).
  std::size_t capacity() const { return slabs_.size() * kSlabSize; }

 private:
  void Grow() {
    const std::size_t base = capacity();
    slabs_.push_back(std::make_unique<T[]>(kSlabSize));
    free_.reserve(capacity());
    T* slab = slabs_.back().get();
    if constexpr (requires { slab->pool_index; }) {
      for (std::size_t i = 0; i < kSlabSize; ++i) {
        slab[i].pool_index = static_cast<std::uint32_t>(base + i);
      }
    }
    // Pushed in reverse so the free list hands out records in slab order.
    for (std::size_t i = kSlabSize; i > 0; --i) free_.push_back(&slab[i - 1]);
  }

  std::size_t live_ = 0;
  std::vector<std::unique_ptr<T[]>> slabs_;  ///< stable record storage
  std::vector<T*> free_;
};

}  // namespace topfull
