// A growable FIFO ring buffer.
//
// std::deque allocates a fresh block every few dozen pushes even in steady
// state; this ring reaches a high-water capacity during warm-up and then
// recycles it forever, which is what the per-pod job queues need to stay
// allocation-free. Elements must be default-constructible and
// move-assignable (popped slots are reset to T{} so captured resources are
// released eagerly).
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace topfull {

template <typename T>
class RingQueue {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  T& front() {
    assert(count_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    assert(count_ > 0);
    return buf_[head_];
  }

  /// i-th element from the front (0 == front()).
  T& at(std::size_t i) {
    assert(i < count_);
    return buf_[(head_ + i) & mask_];
  }

  void push_back(T value) {
    if (count_ == buf_.size()) Grow();
    buf_[(head_ + count_) & mask_] = std::move(value);
    ++count_;
  }

  void pop_front() {
    assert(count_ > 0);
    buf_[head_] = T{};
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  void clear() {
    while (count_ > 0) pop_front();
  }

  std::size_t capacity() const { return buf_.size(); }

 private:
  void Grow() {
    const std::size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < count_; ++i) next[i] = std::move(at(i));
    buf_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> buf_;  ///< capacity is always a power of two
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace topfull
