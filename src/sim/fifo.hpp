// The FIFO family of the simulator:
//
//   * FifoView<T> — the bounded ring buffer of the router lanes: a
//                   non-owning view over one slab lane (element span +
//                   head/size words inside sim/cell_soa.hpp's arrays,
//                   capacity ChipConfig::fifo_depth). Copying the view
//                   copies three pointers, never the lane.
//   * RingQueue<T>— an unbounded deque replacement for the per-cell
//                   action/task/staging queues: allocates NOTHING until
//                   the first push (an empty libstdc++ deque allocates a
//                   512-byte block — ~2 GiB of pure overhead across a
//                   million idle cells), then grows by doubling.
//
// Overflow of a lane is impossible by construction because callers must
// check has_room() — the mesh applies backpressure instead of dropping
// messages.
//
// Misuse (push on full, pop on empty) aborts in EVERY build type, not just
// debug: each means a routing or backpressure invariant is already broken
// and silent wraparound would corrupt messages. The guards are a single
// predictable compare on state the operation loads anyway; death tests in
// tests/fifo_test.cpp pin them.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "runtime/check.hpp"

namespace ccastream::sim {

/// Non-owning ring-buffer FIFO over one slab lane: `buf[0..capacity)` holds
/// the elements, `*head`/`*size` are the lane's occupancy words inside the
/// SoA arrays (see sim/cell_soa.hpp). The view itself is three pointers
/// and a capacity, so call sites pass it by value.
template <typename T>
class FifoView {
 public:
  FifoView(T* buf, std::uint32_t* head, std::uint32_t* size,
           std::uint32_t capacity) noexcept
      : buf_(buf), head_(head), size_(size), capacity_(capacity) {}

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint32_t size() const noexcept { return *size_; }
  [[nodiscard]] bool empty() const noexcept { return *size_ == 0; }
  [[nodiscard]] bool has_room() const noexcept { return *size_ < capacity_; }

  /// Pushes a value; caller must have checked has_room().
  void push(const T& v) {
    if (*size_ >= capacity_) {
      rt::fatal_misuse("FifoView::push on a full FIFO", __FILE__, __LINE__);
    }
    buf_[(*head_ + *size_) % capacity_] = v;
    ++*size_;
  }

  [[nodiscard]] T& front() {
    assert(!empty());
    return buf_[*head_];
  }
  [[nodiscard]] const T& front() const {
    assert(!empty());
    return buf_[*head_];
  }

  void pop() {
    if (*size_ == 0) {
      rt::fatal_misuse("FifoView::pop on an empty FIFO", __FILE__, __LINE__);
    }
    *head_ = (*head_ + 1) % capacity_;
    --*size_;
  }

  /// The lane's occupancy word — identity of the underlying lane, used by
  /// ComputeCell's pop_input ownership guard.
  [[nodiscard]] const std::uint32_t* size_word() const noexcept {
    return size_;
  }

 private:
  T* buf_;
  std::uint32_t* head_;
  std::uint32_t* size_;
  std::uint32_t capacity_;
};

/// Unbounded FIFO queue with a lazily allocated doubling ring buffer — the
/// deque replacement for per-cell work queues. An idle cell's queue is a
/// null pointer and three integers; the first push allocates a small ring
/// that doubles as needed and is reused for the cell's lifetime.
template <typename T>
class RingQueue {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void push_back(const T& v) {
    if (size_ == cap_) grow();
    buf_[(head_ + size_) % cap_] = v;
    ++size_;
  }

  [[nodiscard]] T& front() {
    assert(!empty());
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const {
    assert(!empty());
    return buf_[head_];
  }

  void pop_front() {
    if (size_ == 0) {
      rt::fatal_misuse("RingQueue::pop_front on an empty queue", __FILE__,
                       __LINE__);
    }
    head_ = (head_ + 1) % cap_;
    --size_;
  }

 private:
  void grow() {
    const std::size_t new_cap = cap_ == 0 ? 8 : cap_ * 2;
    std::unique_ptr<T[]> next(new T[new_cap]);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = buf_[(head_ + i) % cap_];
    }
    buf_ = std::move(next);
    cap_ = new_cap;
    head_ = 0;
  }

  std::unique_ptr<T[]> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ccastream::sim
