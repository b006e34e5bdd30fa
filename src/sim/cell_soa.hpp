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
//   active_    the activity-flag BITMAP, kept under both cycle engines:
//              bit i is cell i's flag, set while the cell has work. Every
//              sweep of the event-driven engine walks these words directly
//              (64 cells per load + countr_zero) instead of testing a bool
//              per cell object.
//   summary_   the bitmap's second level: at every cycle boundary, bit w
//              is set iff active_ word w is non-zero. Sweeps skip a clear
//              summary bit's 64 cells without loading them, so an idle
//              4096-cell block costs one load.
//   lane_lists_ / lane_size_
//              the six per-cell message FIFOs (4 router ports, the IO
//              port, the local outport), indexed by (cell, lane): a
//              head/tail SlotList and an occupancy word each, mutated only
//              through Lane views. The messages themselves sit in pool
//              slots (sim/fifo.hpp), which the caller supplies — the Chip
//              passes the cell's row pool — so the slab holds no message
//              storage and fifo_depth only bounds a lane's occupancy.
//
// Concurrency: every array except the two bitmap levels is single-writer
// — only the partition that owns a cell writes its words, and cross-phase
// visibility comes from the engine's barriers, exactly as with the old
// per-cell members. The activity bitmap is written bit-per-owner but
// word-across-partitions (a 64-cell word can straddle a partition
// boundary), so all flag access goes through relaxed std::atomic_ref
// read-modify-writes; each *bit* still has a single writer, which is what
// keeps the engine deterministic. The summary level is shared outright (a
// summary bit covers a word any two partitions may own cells of) and
// follows a set/prune protocol that keeps it race-free without ordering
// (see "The activity bitmap" below and docs/ARCHITECTURE.md).
//
// All-zero is the idle state of every array (an all-zero SlotList is
// empty), so the slab's calloc fill IS the initial state; see
// docs/ARCHITECTURE.md "Memory layout".
#pragma once

#include <atomic>
#include <bit>
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

  // --- The activity bitmap -------------------------------------------------
  // Level 0: bit cc of active_ word cc/64 is cell cc's flag. Each bit has a
  // single writer (the owning partition's worker, or the host between
  // cycles) but a word can straddle a partition boundary, so the
  // read-modify-writes are relaxed atomics — deterministic because no two
  // workers ever race on the same *bit*.
  //
  // Level 1: bit w of summary_ word w/64 covers active_ word w. Invariant
  // at every cycle boundary: the bit is set iff the word is non-zero. The
  // protocol that keeps it without any ordering:
  //   * set   — set_active sets the cell bit, then the summary bit if it
  //             reads clear. Always checked, not only on the word's 0→1
  //             transition: a neighbour may own bits of the same word, and
  //             this partition's own later sweep must not depend on the
  //             neighbour's summary write being visible yet.
  //   * clear — clear_active clears the cell bit, and the summary bit too
  //             when that empties a word lying wholly inside the caller's
  //             span: no other partition owns a bit of it, so none can be
  //             setting one.
  //   * prune — a word two stripes share may be emptied by one while the
  //             other sets a bit in it, so its summary bit stays until the
  //             end-of-cycle step, in which no partition writes the
  //             bitmap, prunes it (prune_summary).

  [[nodiscard]] bool is_active(std::uint32_t cc) const noexcept {
    return (load(active_[cc >> 6]) >> (cc & 63)) & 1u;
  }
  void set_active(std::uint32_t cc) noexcept {
    const std::uint32_t w = cc >> 6;
    std::atomic_ref<std::uint64_t>(active_[w])
        .fetch_or(1ull << (cc & 63), std::memory_order_relaxed);
    const std::uint64_t sbit = 1ull << (w & 63);
    if ((load(summary_[w >> 6]) & sbit) == 0) {
      std::atomic_ref<std::uint64_t>(summary_[w >> 6])
          .fetch_or(sbit, std::memory_order_relaxed);
    }
  }
  /// Clears cell cc of the caller's span [begin, end), and its word's
  /// summary bit too if that empties a word wholly inside the span (for
  /// the ragged last word, measured up to cell_count()).
  void clear_active(std::uint32_t cc, std::uint32_t begin,
                    std::uint32_t end) noexcept {
    const std::uint32_t w = cc >> 6;
    const std::uint64_t bit = 1ull << (cc & 63);
    const std::uint64_t before = std::atomic_ref<std::uint64_t>(active_[w])
                                     .fetch_and(~bit, std::memory_order_relaxed);
    if ((before & ~bit) == 0 && (w << 6) >= begin &&
        (end - (w << 6) >= 64 || end == cells_)) {
      clear_summary(w);
    }
  }
  /// Clears the summary bit of cell cc's word if the word is empty. Only
  /// legal while no other thread writes that word.
  void prune_summary(std::uint32_t cc) noexcept {
    if (load(active_[cc >> 6]) == 0) clear_summary(cc >> 6);
  }

  /// Sweeps the set bits of the half-open cell-index span [begin, end) in
  /// ascending order, calling `f(cell index)` — the core of every phase of
  /// the active engine (each partition's row stripe is one such span).
  /// Words whose summary bit is clear are skipped unread, so a sweep costs
  /// O(live words + span / 4096). Each word is loaded once, before any of
  /// its bits is visited. A bit that `f` sets in the current word or an
  /// earlier one is not visited by this sweep; a bit it sets in a later
  /// word is. So the cells a partition visits depend only on its own
  /// program order, never on a neighbour's timing, which keeps
  /// Chip::cell_visits() deterministic.
  template <typename F>
  void for_each_active(std::uint32_t begin, std::uint32_t end, F&& f) const {
    if (begin >= end) return;
    const std::uint32_t w_first = begin >> 6;
    const std::uint32_t w_last = (end - 1) >> 6;
    for (std::uint32_t s = w_first >> 6; s <= w_last >> 6; ++s) {
      // The words of summary block s that lie inside the span.
      std::uint64_t in_span = ~0ull;
      if (s == w_first >> 6) in_span &= ~0ull << (w_first & 63);
      if (s == w_last >> 6) in_span &= ~0ull >> (63 - (w_last & 63));
      std::uint64_t pending = load(summary_[s]) & in_span;
      while (pending != 0) {
        const int b = std::countr_zero(pending);
        const std::uint32_t w = (s << 6) | static_cast<std::uint32_t>(b);
        std::uint64_t word = load(active_[w]);
        if (w == w_first) word &= ~0ull << (begin & 63);
        if (w == w_last && (end & 63) != 0) word &= ~0ull >> (64 - (end & 63));
        while (word != 0) {
          const int bit = std::countr_zero(word);
          word &= word - 1;
          f((w << 6) | static_cast<std::uint32_t>(bit));
        }
        // Re-read rather than keep the block's first load: `f` may have
        // activated a cell in a later word of this block, and the summary
        // bit it set must be seen here.
        pending = load(summary_[s]) & in_span & (~0ull << b << 1);
      }
    }
  }

  /// Set bits in [begin, end).
  [[nodiscard]] std::uint64_t count_active(std::uint32_t begin,
                                           std::uint32_t end) const noexcept {
    std::uint64_t n = 0;
    for_each_active(begin, end, [&n](std::uint32_t) { ++n; });
    return n;
  }

  /// Whether the summary marks cell cc's 64-cell word as possibly live.
  [[nodiscard]] bool summary_bit(std::uint32_t cc) const noexcept {
    const std::uint32_t w = cc >> 6;
    return (load(summary_[w >> 6]) >> (w & 63)) & 1u;
  }

  /// The summary invariant: a word's summary bit is set iff the word is
  /// non-zero. O(mesh / 64); the checked build's barrier sweep asserts it.
  [[nodiscard]] bool summary_exact() const noexcept {
    for (std::uint32_t w = 0; w < (cells_ + 63) / 64; ++w) {
      const bool summarised = (load(summary_[w >> 6]) >> (w & 63)) & 1u;
      if ((load(active_[w]) != 0) != summarised) return false;
    }
    return true;
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
  // The checked-build death tests corrupt these directly to prove the
  // full-level sweeps still have teeth (tests/check_test.cpp).

  [[nodiscard]] std::uint32_t& fifo_msgs_ref(std::uint32_t cc) noexcept {
    return fifo_msgs_[cc];
  }
  /// Forces the activity flag without maintaining partition structures —
  /// deliberately corrupting, test-only.
  void corrupt_active_flag(std::uint32_t cc, bool on) noexcept {
    if (on) {
      set_active(cc);
    } else {
      std::atomic_ref<std::uint64_t>(active_[cc >> 6])
          .fetch_and(~(1ull << (cc & 63)), std::memory_order_relaxed);
    }
  }
  /// Forces the summary bit of cell cc's word, bypassing the set/prune
  /// protocol — deliberately corrupting, test-only.
  void corrupt_summary_flag(std::uint32_t cc, bool on) noexcept {
    const std::uint32_t w = cc >> 6;
    if (on) {
      std::atomic_ref<std::uint64_t>(summary_[w >> 6])
          .fetch_or(1ull << (w & 63), std::memory_order_relaxed);
    } else {
      clear_summary(w);
    }
  }

  [[nodiscard]] std::size_t slab_bytes() const noexcept {
    return slab_.bytes_capacity();
  }

 private:
  static std::uint64_t load(const std::uint64_t& word) noexcept {
    return std::atomic_ref<const std::uint64_t>(word).load(
        std::memory_order_relaxed);
  }

  void clear_summary(std::uint32_t w) noexcept {
    std::atomic_ref<std::uint64_t>(summary_[w >> 6])
        .fetch_and(~(1ull << (w & 63)), std::memory_order_relaxed);
  }

  rt::SlabArena slab_;
  std::uint32_t cells_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t* hot_ = nullptr;
  std::uint32_t* fifo_msgs_ = nullptr;
  std::uint32_t* snapshot_ = nullptr;
  std::uint8_t* arb_next_ = nullptr;
  std::uint64_t* active_ = nullptr;
  std::uint64_t* summary_ = nullptr;
  SlotList* lane_lists_ = nullptr;
  std::uint32_t* lane_size_ = nullptr;
};

}  // namespace ccastream::sim
