// The struct-of-arrays hot cell state (sim/cell_soa.hpp): the contract
// between the SoA words and the per-cell containers they summarise.
//
//   * the packed hot word is busy << 32 | work_items, and work_items is
//     exactly FIFO messages + staged + task + action queue entries — the
//     invariant idle() reduces to a single load on;
//   * the cached fifo_msgs counter equals real lane occupancy after every
//     sanctioned mutation (push_router/push_io/push_local_out/pop_input),
//     including a randomized interleaving of all of them;
//   * the activity bitmap's span sweep (for_each_active) visits exactly
//     the set bits of a half-open span in ascending order, with correct
//     masking at every 64-bit word boundary — the core of every phase of
//     the active engine — and its summary level (one bit per 64-cell
//     word) never hides a live word and is exact once the words stripes
//     share are pruned, across set/owner-clear/sweep/prune sequences
//     checked against a std::set reference;
//   * lane geometry: arbitration order, per-lane isolation in the slab
//     (the standalone cases supply their own slot pool), the owns_lane
//     ownership guard, and the snapshot latches.
//
// Low-level tests drive a standalone CellSoA; the agreement tests go
// through a real Chip so the sanctioned helpers are exercised exactly as
// the engines use them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "test_util.hpp"

namespace ccastream::sim {
namespace {

/// A message tagged through its birth cycle, so a test can tell which
/// push it is reading back.
Message make_msg(std::uint64_t tag) {
  Message m;
  m.birth_cycle = tag;
  return m;
}

// ---------------------------------------------------------------------------
// Standalone CellSoA: layout, lanes, arbitration, snapshots, bitmap.

TEST(CellSoALayout, InitCarvesAllZeroIdleState) {
  CellSoA soa;
  soa.init(256, 4);
  EXPECT_EQ(soa.cell_count(), 256u);
  EXPECT_EQ(soa.fifo_depth(), 4u);
  EXPECT_GT(soa.slab_bytes(), 0u);
  for (std::uint32_t cc : {0u, 1u, 63u, 64u, 255u}) {
    EXPECT_EQ(soa.hot_word(cc), 0u);
    EXPECT_EQ(soa.fifo_msgs(cc), 0u);
    EXPECT_EQ(soa.lane_occupancy(cc), 0u);
    EXPECT_EQ(soa.arb_next(cc), 0u);
    EXPECT_FALSE(soa.is_active(cc));
    for (std::size_t d = 0; d < kMeshDirections; ++d) {
      EXPECT_EQ(soa.snapshot(cc)[d], 0u);
    }
    for (std::size_t l = 0; l < CellSoA::kLanes; ++l) {
      EXPECT_TRUE(soa.lane(cc, l).empty());
      EXPECT_EQ(soa.lane(cc, l).capacity(), 4u);
    }
  }
}

TEST(CellSoALayout, PackedHotWordHalves) {
  CellSoA soa;
  soa.init(8, 2);
  soa.add_work(3);
  soa.add_work(3);
  soa.set_busy(3, 5);
  EXPECT_EQ(soa.hot_word(3), (5ull << 32) | 2u);
  EXPECT_EQ(soa.busy(3), 5u);
  EXPECT_EQ(soa.work_items(3), 2u);
  soa.dec_busy(3);
  soa.sub_work(3);
  EXPECT_EQ(soa.hot_word(3), (4ull << 32) | 1u);
  // set_busy must not disturb the work half, and vice versa.
  soa.set_busy(3, 0);
  EXPECT_EQ(soa.hot_word(3), 1u);
  soa.sub_work(3);
  EXPECT_EQ(soa.hot_word(3), 0u);
  // Neighbours were never touched.
  EXPECT_EQ(soa.hot_word(2), 0u);
  EXPECT_EQ(soa.hot_word(4), 0u);
}

TEST(CellSoALayout, LanesAreIsolatedPerCellAndLane) {
  CellSoA soa;
  soa.init(16, 3);
  SlotPool pool;
  // One distinct message in every lane of two adjacent cells: no lane may
  // alias another's slab slice.
  for (std::uint32_t cc : {6u, 7u}) {
    for (std::size_t l = 0; l < CellSoA::kLanes; ++l) {
      soa.lane(cc, l).push(pool,
                           make_msg(cc * 10 + static_cast<std::uint32_t>(l)));
    }
  }
  for (std::uint32_t cc : {6u, 7u}) {
    for (std::size_t l = 0; l < CellSoA::kLanes; ++l) {
      ASSERT_EQ(soa.lane(cc, l).size(), 1u);
      EXPECT_EQ(soa.lane(cc, l).front().birth_cycle,
                cc * 10 + static_cast<std::uint32_t>(l));
    }
    EXPECT_EQ(soa.lane_occupancy(cc), CellSoA::kLanes);
  }
  EXPECT_EQ(soa.lane_occupancy(5), 0u);
  EXPECT_EQ(soa.lane_occupancy(8), 0u);
}

TEST(CellSoALayout, OwnsLaneGuardsCellBoundaries) {
  CellSoA soa;
  soa.init(8, 2);
  for (std::size_t l = 0; l < CellSoA::kLanes; ++l) {
    EXPECT_TRUE(soa.owns_lane(4, soa.lane(4, l)));
    EXPECT_FALSE(soa.owns_lane(3, soa.lane(4, l)));
    EXPECT_FALSE(soa.owns_lane(5, soa.lane(4, l)));
  }
}

TEST(CellSoALayout, ArbitrationPointerWrapsOverAllLanes) {
  CellSoA soa;
  soa.init(4, 2);
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::size_t l = 0; l < CellSoA::kLanes; ++l) {
      EXPECT_EQ(soa.arb_next(1), l);
      soa.advance_arb(1);
    }
  }
  EXPECT_EQ(soa.arb_next(1), 0u);
  EXPECT_EQ(soa.arb_next(0), 0u);  // untouched neighbour
}

TEST(CellSoALayout, SnapshotLatchesRouterLanesOnly) {
  CellSoA soa;
  soa.init(8, 4);
  SlotPool pool;
  soa.lane(2, 0).push(pool, make_msg(0));
  soa.lane(2, 0).push(pool, make_msg(0));
  soa.lane(2, 3).push(pool, make_msg(0));
  soa.lane(2, CellSoA::kIoLane).push(pool, make_msg(0));        // not latched
  soa.lane(2, CellSoA::kLocalOutLane).push(pool, make_msg(0));  // not latched
  soa.latch_snapshot(2);
  EXPECT_EQ(soa.snapshot(2)[0], 2u);
  EXPECT_EQ(soa.snapshot(2)[1], 0u);
  EXPECT_EQ(soa.snapshot(2)[2], 0u);
  EXPECT_EQ(soa.snapshot(2)[3], 1u);
  // The latch is a copy: draining the lane afterwards must not move it.
  soa.lane(2, 0).pop(pool);
  EXPECT_EQ(soa.snapshot(2)[0], 2u);
  // Emptied router lanes latch zeros.
  soa.lane(2, 0).pop(pool);
  soa.lane(2, 3).pop(pool);
  soa.latch_snapshot(2);
  for (std::size_t d = 0; d < kMeshDirections; ++d) {
    EXPECT_EQ(soa.snapshot(2)[d], 0u);
  }
}

// ---------------------------------------------------------------------------
// The activity bitmap and its span sweep.

std::vector<std::uint32_t> sweep(const CellSoA& soa, std::uint32_t begin,
                                 std::uint32_t end) {
  std::vector<std::uint32_t> out;
  soa.for_each_active(begin, end, [&out](std::uint32_t cc) { out.push_back(cc); });
  return out;
}

TEST(CellSoABitmap, SetClearIsActive) {
  CellSoA soa;
  soa.init(256, 2);
  for (std::uint32_t cc : {0u, 63u, 64u, 127u, 128u, 255u}) {
    EXPECT_FALSE(soa.is_active(cc));
    soa.set_active(cc);
    EXPECT_TRUE(soa.is_active(cc));
  }
  soa.clear_active(64, 0, 256);
  EXPECT_FALSE(soa.is_active(64));
  EXPECT_TRUE(soa.is_active(63));   // same-word neighbour bit survives
  EXPECT_TRUE(soa.is_active(127));
}

TEST(CellSoABitmap, SweepVisitsSetBitsAscending) {
  CellSoA soa;
  soa.init(256, 2);
  const std::vector<std::uint32_t> bits = {0, 1, 62, 63, 64, 100, 191, 192, 255};
  for (const auto cc : bits) soa.set_active(cc);
  EXPECT_EQ(sweep(soa, 0, 256), bits);
  EXPECT_EQ(soa.count_active(0, 256), bits.size());
}

TEST(CellSoABitmap, SpanMaskingAtWordBoundaries) {
  CellSoA soa;
  soa.init(256, 2);
  for (std::uint32_t cc = 0; cc < 256; ++cc) soa.set_active(cc);

  // Empty and degenerate spans.
  EXPECT_TRUE(sweep(soa, 17, 17).empty());
  EXPECT_TRUE(sweep(soa, 100, 50).empty());
  // Span inside one word.
  EXPECT_EQ(sweep(soa, 5, 9), (std::vector<std::uint32_t>{5, 6, 7, 8}));
  // First/last cell of a word.
  EXPECT_EQ(sweep(soa, 63, 65), (std::vector<std::uint32_t>{63, 64}));
  // end on a word boundary (end & 63 == 0) must not shift by 64.
  EXPECT_EQ(soa.count_active(0, 64), 64u);
  EXPECT_EQ(soa.count_active(32, 128), 96u);
  EXPECT_EQ(soa.count_active(0, 256), 256u);
  // begin on a word boundary.
  EXPECT_EQ(soa.count_active(64, 67), 3u);
  // A span is a half-open interval: end is excluded, begin included.
  const auto span = sweep(soa, 60, 70);
  EXPECT_EQ(span.front(), 60u);
  EXPECT_EQ(span.back(), 69u);
  EXPECT_EQ(span.size(), 10u);
}

TEST(CellSoABitmap, SweepSkipsClearedWords) {
  CellSoA soa;
  soa.init(512, 2);
  soa.set_active(300);
  EXPECT_EQ(sweep(soa, 0, 512), (std::vector<std::uint32_t>{300}));
  EXPECT_EQ(soa.count_active(0, 300), 0u);
  EXPECT_EQ(soa.count_active(301, 512), 0u);
  EXPECT_EQ(soa.count_active(300, 301), 1u);
}

// The summary level against a std::set reference: random sets, owner
// clears, sweeps and cycle boundaries over a 12 345-cell bitmap (193 words,
// so four summary words and a ragged tail), split into random stripes whose
// boundaries fall mid-word and move at every cycle boundary, as
// rebalancing moves them. Every sweep must return exactly the reference's
// cells in the span, ascending — so no clear may hide a live word — and at
// every cycle boundary, once the words two stripes share are pruned, the
// summary must be exact.
TEST(CellSoABitmap, SummaryLevelMatchesReferenceSet) {
  constexpr std::uint32_t kCells = 12'345;
  CellSoA soa;
  soa.init(kCells, 1);
  std::set<std::uint32_t> ref;
  rt::Xoshiro256 rng(0x5EED5);

  const auto expected = [&ref](std::uint32_t begin, std::uint32_t end) {
    if (begin >= end) return std::vector<std::uint32_t>{};
    return std::vector<std::uint32_t>(ref.lower_bound(begin),
                                      ref.lower_bound(end));
  };
  // Stripe starts, ascending from 0: stripe i is [starts[i], starts[i+1]),
  // the last one ending at kCells. One to eight stripes; some are shorter
  // than a word, so a word can straddle several boundaries.
  std::vector<std::uint32_t> starts;
  const auto split = [&] {
    std::set<std::uint32_t> cuts = {0};
    std::uint32_t at = 0;
    for (auto n = rng.below(8); n > 0; --n) {
      // Every other cut lands within two words of the previous one.
      at = static_cast<std::uint32_t>(
          rng.below(2) == 0 ? rng.below(kCells) : at + 1 + rng.below(128));
      if (at > 0 && at < kCells) cuts.insert(at);
    }
    starts.assign(cuts.begin(), cuts.end());
  };
  const auto owner_clear = [&](std::uint32_t cc) {
    const auto it = std::upper_bound(starts.begin(), starts.end(), cc);
    const std::uint32_t end = it == starts.end() ? kCells : *it;
    soa.clear_active(cc, *(it - 1), end);
  };
  const auto cycle_boundary = [&] {
    for (std::size_t p = 1; p < starts.size(); ++p) {
      soa.prune_summary(starts[p]);
    }
    ASSERT_TRUE(soa.summary_exact());
    split();
  };
  split();
  // Fixed spans first (summary-boundary straddles, single-cell and
  // word-edge spans), then random ones.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> fixed = {
      {4'090, 4'100}, {4'000, 8'200},   {63, 8'257},      {8'191, 8'193},
      {1, kCells - 1}, {4'095, 4'097}, {12'287, 12'289}, {0, kCells}};
  // Clustered cells, so whole words fill and empty and their summary bits
  // are cleared by the owner or at the cycle boundary.
  const auto random_cell = [&rng]() -> std::uint32_t {
    const auto hub = static_cast<std::uint32_t>(rng.below(6)) * 2'300;
    const auto off = static_cast<std::uint32_t>(rng.below(300));
    return std::min<std::uint32_t>(kCells - 1, hub + off);
  };

  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t op = rng.below(10);
    if (op < 4) {
      const std::uint32_t cc = random_cell();
      soa.set_active(cc);
      ref.insert(cc);
    } else if (op < 8) {
      const std::uint32_t cc = random_cell();
      owner_clear(cc);
      ref.erase(cc);
    } else if (op == 8) {
      std::uint32_t begin = 0, end = 0;
      if (step % 7 == 0) {
        const auto& span = fixed[static_cast<std::size_t>(step / 7) %
                                 fixed.size()];
        begin = span.first;
        end = span.second;
      } else {
        begin = static_cast<std::uint32_t>(rng.below(kCells));
        end = std::min<std::uint32_t>(
            kCells, begin + static_cast<std::uint32_t>(rng.below(9'000)));
      }
      const auto want = expected(begin, end);
      ASSERT_EQ(sweep(soa, begin, end), want) << begin << ".." << end;
      ASSERT_EQ(soa.count_active(begin, end), want.size());
    } else {
      ASSERT_NO_FATAL_FAILURE(cycle_boundary()) << "step " << step;
    }
    const std::uint32_t probe = random_cell();
    ASSERT_EQ(soa.is_active(probe), ref.count(probe) == 1) << probe;
  }
  for (const std::uint32_t cc : ref) ASSERT_TRUE(soa.summary_bit(cc)) << cc;

  // Emptied words really are pruned: clear everything by owner, cross one
  // cycle boundary, and no summary bit survives.
  for (const std::uint32_t cc : ref) owner_clear(cc);
  cycle_boundary();
  for (std::uint32_t cc = 0; cc < kCells; cc += 64) {
    EXPECT_FALSE(soa.summary_bit(cc)) << cc;
  }
}

// A sweep's view of bits set while it runs follows the sweeping code's own
// program order: a bit `f` sets in a later word — even one whose summary
// bit was clear when the sweep began — is visited; a bit set in the word
// being visited is not.
TEST(CellSoABitmap, BitsSetMidSweepFollowProgramOrder) {
  CellSoA soa;
  soa.init(4'096, 1);
  soa.set_active(10);
  std::vector<std::uint32_t> seen;
  soa.for_each_active(0, 4'096, [&](std::uint32_t cc) {
    seen.push_back(cc);
    if (cc == 10) {
      soa.set_active(20);     // same word as 10: already loaded, not visited
      soa.set_active(3'000);  // later word, summary bit clear until now
    }
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{10, 3'000}));
  EXPECT_TRUE(soa.is_active(20));
}

// ---------------------------------------------------------------------------
// Word <-> container agreement through the sanctioned ComputeCell helpers,
// on a real chip — the exact call sites the engines use.

void expect_consistent(const sim::Chip& chip, std::uint32_t cc) {
  const auto& cell = chip.cell(cc);
  const auto& soa = chip.cell_state();
  ASSERT_EQ(cell.fifo_msgs(), cell.router_occupancy());
  ASSERT_EQ(cell.fifo_msgs(), soa.lane_occupancy(cc));
  const std::uint64_t expected_work =
      cell.fifo_msgs() + cell.staged_count() + cell.task_count() +
      cell.action_count();
  ASSERT_EQ(soa.work_items(cc), expected_work);
  ASSERT_EQ(soa.hot_word(cc),
            (static_cast<std::uint64_t>(cell.busy()) << 32) | expected_work);
  ASSERT_EQ(cell.idle(), soa.hot_word(cc) == 0);
}

TEST(SoAAgreement, SanctionedHelpersKeepHotWordInLockstep) {
  sim::Chip chip(test::small_chip_config(4));
  auto& cell = chip.cell(5);
  expect_consistent(chip, 5);

  cell.push_router(2, make_msg(1));
  cell.push_io(make_msg(2));
  cell.push_local_out(make_msg(3));
  cell.push_staged(make_msg(4));
  cell.push_task(rt::Action{});
  cell.push_action(rt::Action{});
  cell.set_busy(7);
  expect_consistent(chip, 5);
  EXPECT_EQ(cell.fifo_msgs(), 3u);
  EXPECT_EQ(chip.cell_state().work_items(5), 6u);
  EXPECT_FALSE(cell.idle());

  cell.pop_input(cell.router_in(2));
  cell.pop_input(cell.io_in());
  cell.pop_input(cell.local_out());
  cell.pop_staged();
  cell.pop_task();
  cell.pop_action();
  expect_consistent(chip, 5);
  EXPECT_TRUE(cell.busy() > 0);  // busy alone keeps the cell non-idle
  EXPECT_FALSE(cell.idle());
  cell.set_busy(0);
  expect_consistent(chip, 5);
  EXPECT_TRUE(cell.idle());
}

TEST(SoAAgreement, RandomizedInterleavingStaysConsistent) {
  auto cfg = test::small_chip_config(4);
  cfg.check_level = rt::CheckLevel::cheap;  // helpers self-check every op
  sim::Chip chip(cfg);
  const std::uint32_t cc = 9;
  auto& cell = chip.cell(cc);
  rt::Xoshiro256 rng(0xD15EA5E);

  for (int step = 0; step < 2000; ++step) {
    switch (rng.next() % 10) {
      case 0: {
        const std::size_t port = rng.next() % kMeshDirections;
        if (cell.router_in(port).has_room()) cell.push_router(port, make_msg(cc));
        break;
      }
      case 1:
        if (cell.io_in().has_room()) cell.push_io(make_msg(cc));
        break;
      case 2:
        if (cell.local_out().has_room()) cell.push_local_out(make_msg(cc));
        break;
      case 3: {
        // Pop from the first non-empty lane, arbitration-style.
        for (std::size_t l = 0; l < CellSoA::kLanes; ++l) {
          const auto lane = chip.cell_state().lane(cc, l);
          if (!lane.empty()) {
            cell.pop_input(lane);
            break;
          }
        }
        break;
      }
      case 4:
        cell.push_staged(make_msg(cc));
        break;
      case 5:
        if (cell.staged_count() > 0) cell.pop_staged();
        break;
      case 6:
        cell.push_task(rt::Action{});
        break;
      case 7:
        if (cell.task_count() > 0) cell.pop_task();
        break;
      case 8:
        cell.push_action(rt::Action{});
        if (cell.action_count() > 3) cell.pop_action();
        break;
      case 9:
        if (cell.busy() > 0) {
          cell.dec_busy();
        } else {
          cell.set_busy(rng.next() % 4);
        }
        break;
    }
    if (step % 64 == 0) expect_consistent(chip, cc);
  }
  expect_consistent(chip, cc);
  // A cell mutated in isolation never leaks into its neighbours' words.
  expect_consistent(chip, 8);
  expect_consistent(chip, 10);
  EXPECT_TRUE(chip.cell(8).idle());
  EXPECT_TRUE(chip.cell(10).idle());
}

}  // namespace
}  // namespace ccastream::sim
