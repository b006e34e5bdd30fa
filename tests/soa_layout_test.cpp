// The struct-of-arrays hot cell state (sim/cell_soa.hpp): the contract
// between the SoA words and the per-cell containers they summarise.
//
//   * the packed hot word is busy << 32 | work_items, and work_items is
//     exactly FIFO messages + staged + task + action queue entries — the
//     invariant idle() reduces to a single load on;
//   * the cached fifo_msgs counter equals real lane occupancy after every
//     sanctioned mutation (push_router/push_io/push_local_out/pop_input),
//     including a randomized interleaving of all of them;
//   * a partition's activity bitmap (sim/active_set.hpp) sweeps exactly
//     its set bits in ascending order — the core of every phase of the
//     active engine — including a stripe that starts and ends mid-word,
//     whose words keep the chip's alignment; bits set mid-sweep follow
//     the sweep's program order; its summary level (one bit per 64-cell
//     word) is exact after every insert, erase and relayout, checked
//     against a std::set reference; and its exactness check catches a
//     bit outside the stripe and a miscount;
//   * lane geometry: arbitration order, per-lane isolation in the slab
//     (the standalone cases supply their own slot pool), the owns_lane
//     ownership guard, and the snapshot latches.
//
// Low-level tests drive a standalone CellSoA or ActiveSet; the agreement
// tests go through a real Chip so the sanctioned helpers are exercised
// exactly as the engines use them.
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
// Standalone CellSoA: layout, lanes, arbitration, snapshots.

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
// The activity bitmap of one partition (sim/active_set.hpp) and its sweep.

std::vector<std::uint32_t> sweep(const ActiveSet& set) {
  std::vector<std::uint32_t> out;
  set.for_each([&out](std::uint32_t cc) { out.push_back(cc); });
  return out;
}

TEST(ActiveSetBitmap, SweepVisitsSetBitsAscending) {
  ActiveSet set(CellSpan{0, 512});
  std::vector<std::uint32_t> bits = {0,   1,   62,  63,  64, 100,
                                     127, 191, 192, 255, 300};
  for (const auto cc : bits) {
    EXPECT_FALSE(set.contains(cc));
    set.insert(cc);
    set.insert(cc);  // a no-op once set
    EXPECT_TRUE(set.contains(cc));
  }
  EXPECT_EQ(sweep(set), bits);
  EXPECT_EQ(set.size(), bits.size());
  EXPECT_TRUE(set.exact());

  set.erase(64);
  set.erase(64);  // a no-op once clear
  EXPECT_FALSE(set.contains(64));
  EXPECT_TRUE(set.contains(63));  // same-word neighbour bits survive
  EXPECT_TRUE(set.contains(127));
  bits.erase(std::find(bits.begin(), bits.end(), 64u));
  EXPECT_EQ(sweep(set), bits);
  EXPECT_EQ(set.size(), bits.size());
  EXPECT_TRUE(set.exact());

  // A word that empties drops its summary bit at once; the sweep skips it.
  set.erase(300);
  EXPECT_FALSE(set.summary_bit(300));
  EXPECT_TRUE(set.summary_bit(255));
  EXPECT_TRUE(set.exact());
}

// A stripe that starts and ends mid-word keeps its own copies of its two
// edge words, globally aligned: its first word holds cells 0..63, of which
// it owns 36..63, and its last holds 192..255, of which it owns 192..199.
TEST(ActiveSetBitmap, StripeEndsMidWord) {
  ActiveSet set(CellSpan{36, 200});
  EXPECT_TRUE(sweep(set).empty());
  EXPECT_TRUE(set.exact());
  for (std::uint32_t cc = 36; cc < 200; ++cc) set.insert(cc);
  const auto all = sweep(set);
  ASSERT_EQ(all.size(), 164u);
  EXPECT_EQ(all.front(), 36u);
  EXPECT_EQ(all.back(), 199u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_TRUE(set.exact());

  // Emptying the stripe's part of an edge word clears its summary bit.
  for (std::uint32_t cc = 36; cc < 64; ++cc) set.erase(cc);
  EXPECT_FALSE(set.summary_bit(36));
  for (std::uint32_t cc = 192; cc < 200; ++cc) set.erase(cc);
  EXPECT_FALSE(set.summary_bit(199));
  EXPECT_TRUE(set.summary_bit(64));
  EXPECT_EQ(set.size(), 128u);
  EXPECT_EQ(sweep(set).front(), 64u);
  EXPECT_EQ(sweep(set).back(), 191u);
  EXPECT_TRUE(set.exact());

  // A stripe inside one word, and one ending on a word boundary.
  ActiveSet inner(CellSpan{5, 9});
  for (std::uint32_t cc = 5; cc < 9; ++cc) inner.insert(cc);
  EXPECT_EQ(sweep(inner), (std::vector<std::uint32_t>{5, 6, 7, 8}));
  EXPECT_TRUE(inner.exact());
  ActiveSet aligned(CellSpan{64, 128});
  aligned.insert(64);
  aligned.insert(127);
  EXPECT_EQ(sweep(aligned), (std::vector<std::uint32_t>{64, 127}));
  EXPECT_TRUE(aligned.exact());
}

// The exactness check's teeth beyond the summary drift the chip's death
// tests seed (tests/check_test.cpp): a bit outside the stripe, in a word
// it shares with a neighbour, with the word's summary bit and the count
// otherwise consistent; and a count off the popcount.
TEST(ActiveSetBitmap, ExactnessCatchesStrayBitsAndMiscounts) {
  ActiveSet low(CellSpan{36, 200});
  low.insert(40);
  ASSERT_TRUE(low.exact());
  low.corrupt_active_flag(40, false);
  low.corrupt_active_flag(20, true);  // below the stripe's first cell
  EXPECT_FALSE(low.exact());

  ActiveSet high(CellSpan{36, 200});
  high.insert(195);
  ASSERT_TRUE(high.exact());
  high.corrupt_active_flag(195, false);
  high.corrupt_active_flag(210, true);  // at or past the stripe's end
  EXPECT_FALSE(high.exact());

  ActiveSet counted(CellSpan{36, 200});
  counted.insert(100);
  counted.corrupt_active_flag(101, true);  // same word, so no summary drift
  EXPECT_FALSE(counted.exact());
}

// The set against a std::set reference: random inserts, owner erases,
// sweeps and relayouts over a 12 345-cell mesh (193 words, so four summary
// words and a ragged tail), split into random stripes whose boundaries
// fall mid-word. Each relayout carries every set bit to its cell's new
// owner. Every sweep must return exactly the
// reference's cells in the stripe, ascending, and every set must be exact
// after every operation.
TEST(ActiveSetBitmap, MatchesReferenceSetAcrossRelayouts) {
  constexpr std::uint32_t kCells = 12'345;
  std::set<std::uint32_t> ref;
  rt::Xoshiro256 rng(0x5EED5);

  // Stripe starts, ascending from 0: stripe i is [starts[i], starts[i+1]),
  // the last one ending at kCells. One to eight stripes; some are shorter
  // than a word, so a word can straddle several boundaries.
  std::vector<std::uint32_t> starts;
  std::vector<ActiveSet> sets;
  const auto stripe = [&](std::size_t i) {
    return CellSpan{starts[i], i + 1 < starts.size() ? starts[i + 1] : kCells};
  };
  const auto owner = [&](std::uint32_t cc) -> ActiveSet& {
    const auto it = std::upper_bound(starts.begin(), starts.end(), cc);
    return sets[static_cast<std::size_t>(it - starts.begin()) - 1];
  };
  const auto relayout = [&] {
    std::vector<std::uint32_t> live;
    for (const ActiveSet& set : sets) {
      set.for_each([&live](std::uint32_t cc) { live.push_back(cc); });
    }
    std::set<std::uint32_t> cuts = {0};
    std::uint32_t at = 0;
    for (auto n = rng.below(8); n > 0; --n) {
      // Every other cut lands within two words of the previous one.
      at = static_cast<std::uint32_t>(
          rng.below(2) == 0 ? rng.below(kCells) : at + 1 + rng.below(128));
      if (at > 0 && at < kCells) cuts.insert(at);
    }
    starts.assign(cuts.begin(), cuts.end());
    sets.clear();
    for (std::size_t i = 0; i < starts.size(); ++i) {
      sets.emplace_back(stripe(i));
    }
    for (const std::uint32_t cc : live) owner(cc).insert(cc);
  };
  const auto all_exact = [&] {
    std::uint64_t total = 0;
    for (const ActiveSet& set : sets) {
      if (!set.exact()) return false;
      total += set.size();
    }
    return total == ref.size();
  };
  relayout();
  // Clustered cells, so whole words fill and empty.
  const auto random_cell = [&rng]() -> std::uint32_t {
    const auto hub = static_cast<std::uint32_t>(rng.below(6)) * 2'300;
    const auto off = static_cast<std::uint32_t>(rng.below(300));
    return std::min<std::uint32_t>(kCells - 1, hub + off);
  };

  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t op = rng.below(10);
    if (op < 4) {
      const std::uint32_t cc = random_cell();
      owner(cc).insert(cc);
      ref.insert(cc);
    } else if (op < 8) {
      const std::uint32_t cc = random_cell();
      owner(cc).erase(cc);
      ref.erase(cc);
    } else if (op == 8) {
      const auto i = static_cast<std::size_t>(rng.below(sets.size()));
      const CellSpan span = stripe(i);
      const std::vector<std::uint32_t> want(ref.lower_bound(span.begin),
                                            ref.lower_bound(span.end));
      ASSERT_EQ(sweep(sets[i]), want) << span.begin << ".." << span.end;
      ASSERT_EQ(sets[i].size(), want.size());
    } else {
      relayout();
    }
    ASSERT_TRUE(all_exact()) << "step " << step;
    const std::uint32_t probe = random_cell();
    ASSERT_EQ(owner(probe).contains(probe), ref.count(probe) == 1) << probe;
  }
  for (const std::uint32_t cc : ref) {
    ASSERT_TRUE(owner(cc).summary_bit(cc)) << cc;
  }

  // Emptied words really are dropped: erase everything by owner and no
  // summary bit survives.
  for (const std::uint32_t cc : ref) owner(cc).erase(cc);
  ref.clear();
  ASSERT_TRUE(all_exact());
  for (std::uint32_t cc = 0; cc < kCells; ++cc) {
    EXPECT_FALSE(owner(cc).summary_bit(cc)) << cc;
  }
}

// A sweep's view of bits set while it runs follows the sweeping code's own
// program order: a bit `f` sets in a later word — even one whose summary
// bit was clear when the sweep began, or in a later summary block — is
// visited; a bit set in the word being visited is not. Words are the
// chip's, not rebased at the stripe: in a stripe starting at cell 36, cell
// 64 lies in a later word than cell 40, so a bit set there is visited.
TEST(ActiveSetBitmap, BitsSetMidSweepFollowProgramOrder) {
  ActiveSet set(CellSpan{36, 8'192});
  set.insert(40);
  std::vector<std::uint32_t> seen;
  set.for_each([&](std::uint32_t cc) {
    seen.push_back(cc);
    if (cc == 40) {
      set.insert(50);     // same word as 40: already loaded, not visited
      set.insert(64);     // the next word of the chip
      set.insert(3'000);  // later word, summary bit clear until now
      set.insert(5'000);  // later summary block
    }
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{40, 64, 3'000, 5'000}));
  EXPECT_TRUE(set.contains(50));
  EXPECT_TRUE(set.exact());
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
