// Struct-of-arrays hot cell state, owned by the Chip and keyed by cell id.
//
// ComputeCell used to be an array-of-structs object dragging six Fifo
// containers, three deques, an ObjectArena, and an RNG through every cache
// line the engines touch; at 512x512-1024x1024 meshes the phase walks
// and per-cycle idle sweeps were memory-bound on state they never read.
// CellSoA splits the *hot* per-cell state into parallel arrays carved out
// of one rt::SlabArena, about 150 B per cell:
//
//   hot_       one packed word per cell: busy cycles in the high half,
//              total queued work items (FIFO messages + staged + task +
//              action queue entries) in the low half. idle() is exactly
//              `hot == 0` — one aligned load per cell for the sweeps that
//              used to touch a whole object.
//   fifo_msgs_ the exact router-occupancy counter (all six lanes) the
//              checked build cross-checks at every sanctioned mutation.
//   snapshot_  the four router-input latches per cell that ROUTE's
//              one-hop and neighbour room/occupancy decisions read, taken
//              where the lanes settle (after the cell's compute op).
//   arb_next_  the round-robin arbitration pointer per cell.
//   lane_lists_ / lane_size_
//              the six per-cell message FIFOs (4 router ports, the IO
//              port, the local outport), indexed by (cell, lane): a
//              head/tail SlotList and an occupancy word each, mutated only
//              through Lane views. The messages themselves sit in pool
//              slots (sim/fifo.hpp), which the caller supplies — the Chip
//              passes the cell's row pool — so the slab holds no message
//              storage and fifo_depth only bounds a lane's occupancy.
//
// Concurrency: every array is single-writer — only the partition that
// owns a cell writes its words, and cross-phase visibility comes from the
// engine's barriers, exactly as with the old per-cell members. The
// activity bitmap is not here: each partition keeps its own
// (sim/active_set.hpp).
//
// All-zero is the idle state of every array (an all-zero SlotList is
// empty), so the slab's calloc fill IS the initial state; see
// docs/ARCHITECTURE.md "Memory layout".
#pragma once

#include <cassert>
#include <cstdint>

#include "runtime/arena.hpp"
#include "runtime/check.hpp"
#include "sim/fifo.hpp"
#include "sim/message.hpp"
#include "sim/routing.hpp"

namespace ccastream::sim {

class CellSoA {
 public:
  /// FIFO lanes per cell, in arbitration order: router ports 0..3
  /// (kMeshDirections), then the IO input, then the local outport.
  static constexpr std::size_t kLanes = kMeshDirections + 2;
  static constexpr std::size_t kIoLane = kMeshDirections;
  static constexpr std::size_t kLocalOutLane = kMeshDirections + 1;

  CellSoA() = default;
  CellSoA(const CellSoA&) = delete;
  CellSoA& operator=(const CellSoA&) = delete;

  /// Reserves and carves the slab for `cell_count` cells whose lanes hold
  /// at most `fifo_depth` messages. Called exactly once, from the Chip
  /// constructor, before any cell exists; the returned spans never move.
  void init(std::uint32_t cell_count, std::uint32_t fifo_depth);

  [[nodiscard]] std::uint32_t cell_count() const noexcept { return cells_; }
  [[nodiscard]] std::uint32_t fifo_depth() const noexcept { return depth_; }

  // --- The packed hot word -------------------------------------------------
  // hot = busy << 32 | work_items. work_items counts everything the cell
  // holds: FIFO messages plus staged/task/action queue entries. A cell is
  // idle iff its hot word is zero.

  [[nodiscard]] std::uint64_t hot_word(std::uint32_t cc) const noexcept {
    return hot_[cc];
  }
  [[nodiscard]] std::uint32_t busy(std::uint32_t cc) const noexcept {
    return static_cast<std::uint32_t>(hot_[cc] >> 32);
  }
  void set_busy(std::uint32_t cc, std::uint32_t cycles) noexcept {
    hot_[cc] = (hot_[cc] & 0xFFFFFFFFull) |
               (static_cast<std::uint64_t>(cycles) << 32);
  }
  void dec_busy(std::uint32_t cc) noexcept {
    assert(busy(cc) > 0);
    hot_[cc] -= 1ull << 32;
  }
  [[nodiscard]] std::uint32_t work_items(std::uint32_t cc) const noexcept {
    return static_cast<std::uint32_t>(hot_[cc]);
  }
  void add_work(std::uint32_t cc) noexcept { ++hot_[cc]; }
  void sub_work(std::uint32_t cc) noexcept {
    assert(work_items(cc) > 0);
    --hot_[cc];
  }

  // --- The exact FIFO occupancy counter ------------------------------------

  [[nodiscard]] std::uint32_t fifo_msgs(std::uint32_t cc) const noexcept {
    return fifo_msgs_[cc];
  }
  void inc_fifo_msgs(std::uint32_t cc) noexcept {
    ++fifo_msgs_[cc];
    add_work(cc);
  }
  void dec_fifo_msgs(std::uint32_t cc) noexcept {
    assert(fifo_msgs_[cc] > 0);
    --fifo_msgs_[cc];
    sub_work(cc);
  }

  // --- Router-input snapshot latches ---------------------------------------

  [[nodiscard]] std::uint32_t* snapshot(std::uint32_t cc) noexcept {
    return &snapshot_[static_cast<std::size_t>(cc) * kMeshDirections];
  }
  [[nodiscard]] const std::uint32_t* snapshot(std::uint32_t cc) const noexcept {
    return &snapshot_[static_cast<std::size_t>(cc) * kMeshDirections];
  }
  /// Latches the cell's four router-input sizes: the next cycle's
  /// phase-start values, which every ROUTE decision reads. An idle cell's
  /// latch is all zeros.
  void latch_snapshot(std::uint32_t cc) noexcept {
    const std::uint32_t* sz = &lane_size_[static_cast<std::size_t>(cc) * kLanes];
    std::uint32_t* snap = snapshot(cc);
    for (std::size_t d = 0; d < kMeshDirections; ++d) snap[d] = sz[d];
  }

  // --- Arbitration pointers ------------------------------------------------

  [[nodiscard]] std::uint8_t arb_next(std::uint32_t cc) const noexcept {
    return arb_next_[cc];
  }
  void advance_arb(std::uint32_t cc) noexcept {
    arb_next_[cc] = static_cast<std::uint8_t>((arb_next_[cc] + 1) % kLanes);
  }

  // --- The FIFO lanes -----------------------------------------------------

  /// The (cell, lane) view; lane in [0, kLanes) follows the arbitration
  /// order above. All mutation goes through ComputeCell's sanctioned
  /// helpers, which maintain fifo_msgs_ and the hot word.
  [[nodiscard]] Lane lane(std::uint32_t cc, std::size_t l) const noexcept {
    const std::size_t li = static_cast<std::size_t>(cc) * kLanes + l;
    return Lane(&lane_lists_[li], &lane_size_[li], depth_);
  }

  /// True iff `view` is one of cell `cc`'s six lanes — the cheap-level
  /// guard that pop_input is not handed a neighbour's lane (which would
  /// silently desynchronise two fifo_msgs counters).
  [[nodiscard]] bool owns_lane(std::uint32_t cc,
                               const Lane& view) const noexcept {
    const std::uint32_t* base =
        &lane_size_[static_cast<std::size_t>(cc) * kLanes];
    return view.size_word() >= base && view.size_word() < base + kLanes;
  }

  /// Messages currently buffered across all six lanes of cell `cc` — the
  /// ground truth fifo_msgs(cc) caches.
  [[nodiscard]] std::uint32_t lane_occupancy(std::uint32_t cc) const noexcept {
    const std::uint32_t* sz = &lane_size_[static_cast<std::size_t>(cc) * kLanes];
    std::uint32_t n = 0;
    for (std::size_t l = 0; l < kLanes; ++l) n += sz[l];
    return n;
  }

  // --- Test/introspection backdoors ----------------------------------------
  // The checked-build death tests corrupt this directly to prove the
  // full-level sweeps still have teeth (tests/check_test.cpp).

  [[nodiscard]] std::uint32_t& fifo_msgs_ref(std::uint32_t cc) noexcept {
    return fifo_msgs_[cc];
  }

  [[nodiscard]] std::size_t slab_bytes() const noexcept {
    return slab_.bytes_capacity();
  }

 private:
  rt::SlabArena slab_;
  std::uint32_t cells_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t* hot_ = nullptr;
  std::uint32_t* fifo_msgs_ = nullptr;
  std::uint32_t* snapshot_ = nullptr;
  std::uint8_t* arb_next_ = nullptr;
  SlotList* lane_lists_ = nullptr;
  std::uint32_t* lane_size_ = nullptr;
};

}  // namespace ccastream::sim
