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
// A record carries a `pool_index` member, written once, when its slab is
// carved. At(index) finds the record again with a shift and a mask, so a
// 32-bit event argument, job token or record field can name it, and the
// free list is a stack of those 4-byte indices rather than of pointers.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace topfull {

/// T: default-constructible, with a `std::uint32_t pool_index` the pool
/// owns. T may be incomplete where the pool is declared.
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
    T* p = At(free_.back());
    free_.pop_back();
    ++live_;
    return p;
  }

  /// Returns `p` to the pool. `p` must have come from this pool's Alloc.
  void Free(T* p) {
    assert(live_ > 0 && At(p->pool_index) == p);
    --live_;
    free_.push_back(p->pool_index);
  }

  /// The record whose `pool_index` is `index`.
  T* At(std::uint32_t index) const {
    assert(index < capacity());
    return &slabs_[index >> kSlabShift][index & (kSlabSize - 1)];
  }

  /// Records currently handed out.
  std::size_t live() const { return live_; }
  /// Total records ever created (live + free).
  std::size_t capacity() const { return slabs_.size() * kSlabSize; }

 private:
  void Grow() {
    static_assert(std::is_same_v<decltype(T::pool_index), std::uint32_t>);
    const auto base = static_cast<std::uint32_t>(capacity());
    slabs_.push_back(std::make_unique<T[]>(kSlabSize));
    T* slab = slabs_.back().get();
    for (std::uint32_t i = 0; i < kSlabSize; ++i) slab[i].pool_index = base + i;
    // Pushed in reverse so the free list hands out records in slab order.
    for (std::uint32_t i = kSlabSize; i > 0; --i) free_.push_back(base + i - 1);
  }

  std::size_t live_ = 0;
  std::vector<std::unique_ptr<T[]>> slabs_;  ///< stable record storage
  std::vector<std::uint32_t> free_;          ///< pool indices, LIFO
};

}  // namespace topfull
