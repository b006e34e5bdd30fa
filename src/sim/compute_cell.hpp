// One AM-CCA Compute Cell: scratchpad memory, compute logic, and a 5-port
// mesh router (4 neighbour input buffers + an IO input on border cells).
//
// Per simulation cycle a cell performs at most ONE operation (paper §4):
// either one abstract instruction of the action it is executing, or the
// staging of one outbound message created by `propagate`. The Chip owns the
// per-cycle orchestration; this class is the cell's *cold* state.
//
// The hot state — busy cycles, FIFO occupancy, snapshot latches, the
// arbitration pointer, the activity flag, and the six message FIFOs
// themselves — lives in the chip's struct-of-arrays block (sim/cell_soa.hpp),
// keyed by this cell's index. What remains here is what only the compute
// phase of THIS cell ever touches: the scratchpad arena, the RNG, the
// round-robin ghost cursor, and the unbounded action/task/staging queues.
// Lanes and queues are SlotLists whose messages sit in slots of the cell's
// mesh-row SlotPool (sim/fifo.hpp). Every mutation of the hot state still
// goes through this class's sanctioned helpers, which keep the SoA words
// (the packed hot word and the exact fifo_msgs counter) in lockstep with
// the containers.
#pragma once

#include <cstdint>

#include "runtime/action.hpp"
#include "runtime/arena.hpp"
#include "runtime/check.hpp"
#include "runtime/rng.hpp"
#include "sim/cell_soa.hpp"
#include "sim/fifo.hpp"
#include "sim/message.hpp"
#include "sim/routing.hpp"

namespace ccastream::sim {

class ComputeCell {
 public:
  /// `pool` is the slot pool of the cell's mesh row: every message this
  /// cell's lanes and queues take a slot for comes from it, and every slot
  /// they drain goes back to it.
  ComputeCell(std::uint32_t index, std::size_t memory_bytes, CellSoA* soa,
              SlotPool* pool, std::uint64_t rng_seed,
              rt::CheckLevel check_level = rt::CheckLevel::off)
      : arena(memory_bytes), rng(rng_seed), soa_(soa), pool_(pool),
        index_(index), check_level_(check_level) {}

  // Cells are pinned: the SoA block and the partition workers hold the
  // cell's index as an identity, and the chip builds the cell array in
  // place exactly once (sized from ChipConfig), so relocation is never
  // meaningful. Deleting all four operations enforces that statically.
  ComputeCell(const ComputeCell&) = delete;
  ComputeCell& operator=(const ComputeCell&) = delete;
  ComputeCell(ComputeCell&&) = delete;
  ComputeCell& operator=(ComputeCell&&) = delete;

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }

  /// True when the cell holds no work of any kind — the per-cell component
  /// of global quiescence. One load: the packed hot word (busy cycles and
  /// the total queued-work count) is zero iff the cell is idle.
  [[nodiscard]] bool idle() const noexcept;

  /// The activity predicate of the event-driven engine: a cell belongs in
  /// its partition's active set iff it has work — it is busy, or any of
  /// its queues or FIFO lanes is non-empty. Exactly `!idle()`, named for
  /// the call sites that reason about set membership.
  [[nodiscard]] bool has_work() const noexcept { return !idle(); }

  /// Messages currently buffered in this cell's router (all six inputs:
  /// four neighbour ports, the IO port, and locally staged traffic).
  [[nodiscard]] std::uint32_t router_occupancy() const noexcept;

  // --- Busy-cycle accessors (high half of the SoA hot word) ---------------

  [[nodiscard]] std::uint32_t busy() const noexcept {
    return soa_->busy(index_);
  }
  void set_busy(std::uint32_t cycles) noexcept {
    soa_->set_busy(index_, cycles);
  }
  void dec_busy() noexcept { soa_->dec_busy(index_); }

  // --- FIFO lane views ----------------------------------------------------
  // Non-owning views over this cell's slab lanes; mutation only through
  // the sanctioned helpers below.

  [[nodiscard]] Lane router_in(std::size_t port) const noexcept {
    return soa_->lane(index_, port);
  }
  [[nodiscard]] Lane io_in() const noexcept {
    return soa_->lane(index_, CellSoA::kIoLane);
  }
  [[nodiscard]] Lane local_out() const noexcept {
    return soa_->lane(index_, CellSoA::kLocalOutLane);
  }

  // --- Sanctioned FIFO mutation helpers -----------------------------------
  // The ONLY operations allowed to push/pop this cell's message FIFOs
  // (enforced statically by the `fifo-discipline` rule of
  // tools/lint/ccastream_lint.py): each keeps the cached `fifo_msgs`
  // counter — and through it the packed hot word — in lockstep with the
  // lanes and, at check level `cheap` and above, cross-checks the counter
  // after every mutation — the runtime side of the same invariant.
  //
  // Every push copies the message into a slot of this cell's row pool,
  // and every pop returns the slot to it, so a message that hops to
  // another row leaves its slot at home and each pool stays balanced.

  /// Pushes a message arriving from a neighbour into router port `port`.
  void push_router(std::size_t port, const Message& m) {
    router_in(port).push(*pool_, m);
    soa_->inc_fifo_msgs(index_);
    CCA_CHECK(cheap, fifo_msgs() == router_occupancy());
  }

  /// Pushes a message injected by the attached IO cell.
  void push_io(const Message& m) {
    io_in().push(*pool_, m);
    soa_->inc_fifo_msgs(index_);
    CCA_CHECK(cheap, fifo_msgs() == router_occupancy());
  }

  /// Stages one locally created message into the network outport.
  void push_local_out(const Message& m) {
    local_out().push(*pool_, m);
    soa_->inc_fifo_msgs(index_);
    CCA_CHECK(cheap, fifo_msgs() == router_occupancy());
  }

  /// Pops the front of one of this cell's own input FIFOs (router port,
  /// IO port, or local outport — the router phase selects the source
  /// dynamically, so the helper takes the lane view itself).
  void pop_input(Lane src) {
    CCA_CHECK(cheap, soa_->owns_lane(index_, src));
    src.pop(*pool_);
    soa_->dec_fifo_msgs(index_);
    CCA_CHECK(cheap, fifo_msgs() == router_occupancy());
  }

  /// The cached FIFO occupancy counter (see CellSoA::fifo_msgs).
  [[nodiscard]] std::uint32_t fifo_msgs() const noexcept {
    return soa_->fifo_msgs(index_);
  }

  // --- Sanctioned queue mutation helpers ----------------------------------
  // Same contract as the FIFO helpers, for the unbounded queues this class
  // still owns: every push/pop maintains the work count in the hot word,
  // so `idle()` stays a single load. Each queue keeps its length beside
  // it (a SlotList holds none), so the counts stay O(1) for the audits.

  void push_action(const rt::Action& a) {
    action_queue_.push(*pool_, Message{a, 0});
    ++action_count_;
    soa_->add_work(index_);
  }
  [[nodiscard]] const rt::Action& front_action() const {
    return action_queue_.front().action;
  }
  void pop_action() {
    action_queue_.pop(*pool_);
    --action_count_;
    soa_->sub_work(index_);
  }
  [[nodiscard]] std::size_t action_count() const noexcept {
    return action_count_;
  }

  void push_task(const rt::Action& a) {
    task_queue_.push(*pool_, Message{a, 0});
    ++task_count_;
    soa_->add_work(index_);
  }
  [[nodiscard]] const rt::Action& front_task() const {
    return task_queue_.front().action;
  }
  void pop_task() {
    task_queue_.pop(*pool_);
    --task_count_;
    soa_->sub_work(index_);
  }
  [[nodiscard]] std::size_t task_count() const noexcept { return task_count_; }

  void push_staged(const Message& m) {
    staged_.push(*pool_, m);
    ++staged_count_;
    soa_->add_work(index_);
  }
  [[nodiscard]] const Message& front_staged() const { return staged_.front(); }
  void pop_staged() {
    staged_.pop(*pool_);
    --staged_count_;
    soa_->sub_work(index_);
  }
  [[nodiscard]] std::size_t staged_count() const noexcept {
    return staged_count_;
  }

  // --- Scratchpad ---------------------------------------------------------
  rt::ObjectArena arena;

  // --- Misc ---------------------------------------------------------------
  rt::Xoshiro256 rng;
  /// Round-robin ghost placement state of this cell as an origin (see
  /// rt::choose_ghost_cell). Stored beside the queue counts, in their
  /// padding.
  [[nodiscard]] std::uint32_t& alloc_cursor() noexcept { return alloc_cursor_; }

 private:
  /// Current check level for the CCA_CHECK macro (see runtime/check.hpp);
  /// set by the owning Chip from its resolved ChipConfig::check_level.
  [[nodiscard]] rt::CheckLevel cca_check_level() const noexcept {
    return check_level_;
  }

  /// Actions delivered to this cell, awaiting dispatch (a slot's
  /// birth_cycle is not read here).
  SlotList action_queue_;
  /// Deferred local tasks (future LCO drains); dispatched before new actions.
  SlotList task_queue_;
  /// Messages created by handlers, not yet staged into the network.
  SlotList staged_;
  std::uint32_t action_count_ = 0;
  std::uint32_t task_count_ = 0;
  std::uint32_t staged_count_ = 0;
  std::uint32_t alloc_cursor_ = 0;

  CellSoA* soa_;
  SlotPool* pool_;
  std::uint32_t index_;
  rt::CheckLevel check_level_;
};

}  // namespace ccastream::sim
