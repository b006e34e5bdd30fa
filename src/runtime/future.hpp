// The future LCO (Local Control Object) of paper §3 / Figure 4.
//
// A FutureAddr is a future of Pointer type living inside a vertex fragment.
// Its life cycle mirrors Figure 4 exactly:
//   (0) empty   — value null, queue empty;
//   (1) pending — an insert saw the edge list full and fired the allocate
//                 continuation; the future awaits the return trigger;
//   (2) pending with enqueued closures — actions that depend on the value
//                 arrive meanwhile; their deferred tasks queue up;
//   (3) ready   — the continuation returned with the new memory address;
//   (4) queue drained — every deferred task is scheduled on the cell's
//                 local task queue and the wait queue empties.
//
// A deferred task is represented as an Action whose target is patched with
// the future's value at fulfilment time (the closure of Listing 6 line 23-26
// always re-targets the awaited address).
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/action.hpp"
#include "runtime/context.hpp"
#include "runtime/types.hpp"

namespace ccastream::rt {

/// future : (Future Pointer) — see file comment.
class FutureAddr {
 public:
  enum class State : std::uint8_t {
    kEmpty,    ///< No value, no allocation in flight.
    kPending,  ///< Allocation continuation in flight; waiters may queue.
    kReady,    ///< Value available.
  };

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool is_empty() const noexcept { return state_ == State::kEmpty; }
  [[nodiscard]] bool is_pending() const noexcept { return state_ == State::kPending; }
  [[nodiscard]] bool is_ready() const noexcept { return state_ == State::kReady; }

  /// Value of a ready future; null address otherwise.
  [[nodiscard]] GlobalAddress value() const noexcept { return value_; }

  /// Marks the future pending (`future-pending!`). Only legal from empty;
  /// returns false (no-op) otherwise so callers can detect protocol misuse.
  bool set_pending() noexcept;

  /// Enqueues a deferred task to run once the value arrives
  /// (`enqueue-future!`). The task's target is patched to the value at
  /// fulfilment. Only legal while pending; returns false otherwise.
  bool enqueue(const Action& deferred);

  /// Fulfils the future (`set-future!` via the returned continuation) and
  /// drains every waiter onto the executing cell's local task queue.
  /// Returns the number of waiters drained; -1 if the future was already
  /// ready (double fulfilment is a protocol fault the caller can surface).
  int fulfil(GlobalAddress value, Context& ctx);

  /// A ready future holding `value`, as a checkpoint restores it.
  [[nodiscard]] static FutureAddr ready(GlobalAddress value) noexcept {
    FutureAddr f;
    f.state_ = State::kReady;
    f.value_ = value;
    return f;
  }

  /// Number of tasks currently waiting on the value.
  [[nodiscard]] std::size_t pending_tasks() const noexcept { return waiters_.size(); }

  /// High-water mark of the wait queue (diagnostics / paper Figure 4 study).
  [[nodiscard]] std::size_t max_queue_depth() const noexcept { return max_depth_; }

  /// Scratchpad footprint contribution of the queue bookkeeping.
  [[nodiscard]] static constexpr std::size_t logical_bytes() noexcept {
    return sizeof(GlobalAddress) + sizeof(State);
  }

 private:
  GlobalAddress value_ = kNullAddress;
  State state_ = State::kEmpty;
  std::vector<Action> waiters_;
  std::size_t max_depth_ = 0;
};

}  // namespace ccastream::rt
