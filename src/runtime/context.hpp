// Execution context handed to every action handler.
//
// A handler runs *at* a compute cell, against a target object in that cell's
// scratchpad. Through the context it can: mutate local objects, `propagate`
// new actions into the network (the diffusion), schedule deferred local
// tasks (used when a future LCO is fulfilled), charge abstract instruction
// cost, and issue the asynchronous `allocate` system action with a
// return-trigger continuation (paper §3.1, Figure 3).
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>

#include "runtime/action.hpp"
#include "runtime/arena.hpp"
#include "runtime/geometry.hpp"
#include "runtime/rng.hpp"
#include "runtime/types.hpp"

namespace ccastream::rt {

/// Kind tag for arena objects creatable through the allocate system action.
/// Object factories are registered per kind with the chip.
using ObjectKind = std::uint16_t;

/// Simulator statistic channels a handler (or the protocol library) may
/// bump from inside an action. The simulator routes them to the executing
/// partition's private counter block, summed when Chip::stats() is read,
/// so handlers never write shared chip state — the invariant that makes the
/// parallel engine race-free and deterministic.
enum class SimCounter : std::uint8_t {
  kFuturesFulfilled,
  kFutureWaitersDrained,
  kAllocForwards,
  kAllocFailures,
};

/// Abstract handler execution context. The simulator provides the concrete
/// implementation; tests may provide mocks.
class Context {
 public:
  virtual ~Context() = default;

  /// Index of the compute cell this handler is executing on.
  [[nodiscard]] virtual std::uint32_t cc() const = 0;

  /// Chip mesh geometry (for locality-aware decisions).
  [[nodiscard]] virtual const MeshGeometry& geometry() const = 0;

  /// Stages an outbound action. Staging costs one cell-cycle per message
  /// (paper §4: a cell either executes an instruction or stages a message).
  virtual void propagate(const Action& action) = 0;

  /// Enqueues an action on this cell's local task queue, bypassing the
  /// network. Used to schedule closures drained from a future's wait queue.
  virtual void schedule_local(const Action& action) = 0;

  /// Charges `instructions` abstract instruction cycles to this cell.
  virtual void charge(std::uint32_t instructions) = 0;

  /// Dereferences an address owned by this cell. Returns nullptr if the
  /// address belongs to a different cell or is out of range — actions only
  /// ever touch memory local to the cell they run on.
  [[nodiscard]] virtual ArenaObject* deref(GlobalAddress addr) = 0;

  /// Synchronously allocates an object of `kind` in this cell's own arena.
  /// Returns the new address, or nullopt when the scratchpad is full.
  virtual std::optional<GlobalAddress> allocate_local(ObjectKind kind) = 0;

  /// Fires the asynchronous `allocate` system action (paper Listing 6 line
  /// 18, Figure 3): an allocation request is propagated to a compute cell
  /// chosen by the chip's ghost-allocation policy; when the remote cell has
  /// allocated, it sends back the *return-trigger* action
  /// `reply_handler(reply_to, new_address, tag)` which resumes the waiting
  /// state (typically by fulfilling a future LCO).
  virtual void call_cc_allocate(ObjectKind kind, GlobalAddress reply_to,
                                HandlerId reply_handler, Word tag) = 0;

  /// Per-cell deterministic RNG.
  [[nodiscard]] virtual Xoshiro256& rng() = 0;

  /// Bumps a simulator statistic from handler code. Mock contexts may keep
  /// the default no-op.
  virtual void count(SimCounter /*counter*/, std::uint64_t /*n*/) {}

  /// Index of the engine partition (its rows are a fixed set of blocks —
  /// see sim/partition.hpp) executing this handler — always 0 on
  /// mocks and the serial engine. Handler libraries that keep their own
  /// counters key them by this index so concurrent handlers never write
  /// shared memory (see graph::GraphProtocol::stats()). Ids run
  /// 0..partitions-1, and every keyed counter must be a pure sum so
  /// totals stay partition-invariant.
  [[nodiscard]] virtual std::uint32_t partition() const { return 0; }

  /// Typed local dereference helper. T must derive from ArenaObject.
  template <typename T>
  [[nodiscard]] T* as(GlobalAddress addr) {
    static_assert(std::is_base_of_v<ArenaObject, T>);
    return static_cast<T*>(deref(addr));
  }
};

}  // namespace ccastream::rt
