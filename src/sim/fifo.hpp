// The message buffers of the simulator: every message a chip holds — in a
// router lane or in a cell's action, task or staging queue — sits in one
// 64-byte QueueSlot taken from a SlotPool.
//
//   * SlotPool — a LIFO free list of slots, carved in fixed blocks of
//                kBlockSlots that live as long as the pool. The Chip keeps
//                one per mesh row, so its memory follows each row's peak
//                live traffic, not mesh size × fifo_depth.
//   * SlotList — the one container type: a FIFO of slots linked through
//                QueueSlot::next (a head/tail pair; all-zero is empty, so
//                the CellSoA slab holds lane lists as plain words). A
//                cell's queues are bare SlotLists.
//   * Lane     — a router lane: a non-owning view of one slab SlotList
//                plus its occupancy word in CellSoA and the
//                ChipConfig::fifo_depth bound. The bound models the
//                router's buffer; it sizes no storage.
//
// The mutators are named push/pop so the lint's `fifo-discipline` rule
// polices them: push(pool, m) copies a message into a slot taken from
// `pool`, and pop(pool) hands the front slot back to `pool`. A message
// moving between two lists is copied, never relinked, so each slot goes
// back to the pool that carved it; a slot handed to another row's pool
// would drain one pool and strand slots in the other (see
// docs/ARCHITECTURE.md "Memory layout").
//
// Overflow of a lane is impossible by construction because callers must
// check has_room() — the mesh applies backpressure instead of dropping
// messages. Misuse (push on a full lane, pop on an empty lane or list)
// aborts in EVERY build type, not just debug: each means a routing or
// backpressure invariant is already broken and a silent null link would
// corrupt messages. The guards are a single predictable compare on state
// the operation loads anyway; death tests in tests/fifo_test.cpp pin them.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/check.hpp"
#include "sim/message.hpp"

namespace ccastream::sim {

/// One pooled message buffer: a Message plus the link that chains it into
/// a SlotList or the pool's free list. Exactly one cache line.
struct alignas(64) QueueSlot {
  Message msg;
  QueueSlot* next = nullptr;
};
static_assert(sizeof(QueueSlot) == 64, "a QueueSlot is one 64-byte line");

/// LIFO free list of QueueSlots. A slot handed back is the next one taken,
/// so a pool holds its owner's peak live message count, rounded up to a
/// block, however long it runs. Single-writer: the Chip's pools are per
/// mesh row, and only the row's owner takes or gives in any stage.
class alignas(64) SlotPool {
 public:
  /// Slots per carved block (one 2 KiB allocation).
  static constexpr std::size_t kBlockSlots = 32;

  [[nodiscard]] QueueSlot* take() {
    if (free_ == nullptr) grow();
    QueueSlot* s = free_;
    free_ = s->next;
    return s;
  }
  void give(QueueSlot* s) noexcept {
    s->next = free_;
    free_ = s;
  }

  /// Slots carved so far, free or in use.
  [[nodiscard]] std::size_t slots() const noexcept {
    return blocks_.size() * kBlockSlots;
  }
  [[nodiscard]] std::size_t blocks() const noexcept { return blocks_.size(); }

 private:
  void grow() {
    QueueSlot* block =
        blocks_.emplace_back(std::make_unique<QueueSlot[]>(kBlockSlots)).get();
    for (std::size_t i = kBlockSlots; i > 0; --i) give(&block[i - 1]);
  }

  QueueSlot* free_ = nullptr;
  std::vector<std::unique_ptr<QueueSlot[]>> blocks_;
};

/// FIFO of pool slots. Holds no size: a lane keeps its occupancy in the
/// CellSoA slab, and a cell keeps each queue's length beside the queue.
class SlotList {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }

  [[nodiscard]] const Message& front() const noexcept {
    assert(!empty());
    return head_->msg;
  }

  /// Copies `m` into a slot taken from `pool` and links it at the back.
  void push(SlotPool& pool, const Message& m) {
    QueueSlot* s = pool.take();
    s->msg = m;
    s->next = nullptr;
    (tail_ != nullptr ? tail_->next : head_) = s;
    tail_ = s;
  }

  /// Unlinks the front slot and hands it back to `pool`.
  void pop(SlotPool& pool) {
    if (head_ == nullptr) {
      rt::fatal_misuse("SlotList::pop on an empty list", __FILE__, __LINE__);
    }
    QueueSlot* s = head_;
    head_ = s->next;
    if (head_ == nullptr) tail_ = nullptr;
    pool.give(s);
  }

 private:
  QueueSlot* head_ = nullptr;
  QueueSlot* tail_ = nullptr;
};

/// A router lane: a SlotList in the CellSoA slab, its occupancy word, and
/// the fifo_depth bound. The view is two pointers and a capacity, so call
/// sites pass it by value.
class Lane {
 public:
  Lane(SlotList* list, std::uint32_t* size, std::uint32_t capacity) noexcept
      : list_(list), size_(size), capacity_(capacity) {}

  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint32_t size() const noexcept { return *size_; }
  [[nodiscard]] bool empty() const noexcept { return *size_ == 0; }
  [[nodiscard]] bool has_room() const noexcept { return *size_ < capacity_; }

  [[nodiscard]] const Message& front() const noexcept { return list_->front(); }

  /// Pushes a copy of `m` in a slot from `pool`; caller checked has_room().
  void push(SlotPool& pool, const Message& m) {
    if (*size_ >= capacity_) {
      rt::fatal_misuse("Lane::push on a full lane", __FILE__, __LINE__);
    }
    list_->push(pool, m);
    ++*size_;
  }

  void pop(SlotPool& pool) {
    if (*size_ == 0) {
      rt::fatal_misuse("Lane::pop on an empty lane", __FILE__, __LINE__);
    }
    list_->pop(pool);
    --*size_;
  }

  /// The lane's occupancy word — identity of the underlying lane, used by
  /// ComputeCell's pop_input ownership guard.
  [[nodiscard]] const std::uint32_t* size_word() const noexcept {
    return size_;
  }

 private:
  SlotList* list_;
  std::uint32_t* size_;
  std::uint32_t capacity_;
};

}  // namespace ccastream::sim
