// Unit tests: the message buffers of sim/fifo.hpp — the SlotPool free
// list, the SlotList every lane and queue is, and the Lane view that adds
// the fifo_depth bound. Each gets ordering behaviour plus its always-on
// misuse guards (push on a full lane and pop on an empty lane or list
// abort in every build type, not just debug; see the header comment in
// sim/fifo.hpp).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "sim/fifo.hpp"

namespace ccastream::sim {
namespace {

constexpr std::size_t kBlock = SlotPool::kBlockSlots;

/// A message tagged through its birth cycle.
Message tagged(std::uint64_t tag) {
  Message m;
  m.birth_cycle = tag;
  return m;
}

// ---------------------------------------------------------------------------
// SlotPool: a LIFO free list carved in fixed blocks.

TEST(SlotPool, StartsWithoutBlocks) {
  const SlotPool pool;
  EXPECT_EQ(pool.blocks(), 0u);
  EXPECT_EQ(pool.slots(), 0u);
}

TEST(SlotPool, CarvesOneBlockPerBlockOfLiveSlots) {
  SlotPool pool;
  std::set<QueueSlot*> live;
  for (std::size_t i = 0; i < kBlock + 1; ++i) live.insert(pool.take());
  EXPECT_EQ(live.size(), kBlock + 1);  // every slot distinct
  EXPECT_EQ(pool.blocks(), 2u);
  EXPECT_EQ(pool.slots(), 2 * kBlock);
}

TEST(SlotPool, ReusesTheLastSlotGivenBack) {
  SlotPool pool;
  QueueSlot* a = pool.take();
  QueueSlot* b = pool.take();
  pool.give(a);
  pool.give(b);
  EXPECT_EQ(pool.take(), b);
  EXPECT_EQ(pool.take(), a);
  EXPECT_EQ(pool.blocks(), 1u);
}

// Slots are reused LIFO, so a pool holds its peak live count: ten
// fill/drain rounds of k items end where the first round did, at exactly
// ceil(k / block) blocks.
TEST(SlotPool, RepeatedBurstsHoldThePeakNotTheHistory) {
  for (const std::size_t k : {std::size_t{1}, kBlock - 1, kBlock, kBlock + 1,
                              5 * kBlock + 3}) {
    SCOPED_TRACE(k);
    SlotPool pool;
    SlotList list;
    for (int round = 0; round < 10; ++round) {
      for (std::size_t i = 0; i < k; ++i) list.push(pool, tagged(i));
      for (std::size_t i = 0; i < k; ++i) list.pop(pool);
      EXPECT_TRUE(list.empty());
    }
    EXPECT_EQ(pool.blocks(), (k + kBlock - 1) / kBlock);
  }
}

// ---------------------------------------------------------------------------
// SlotList: the FIFO of slots behind every lane and queue.

TEST(SlotList, ZeroedListIsEmpty) {
  // An all-zero list is empty: the CellSoA slab relies on it.
  SlotList list;
  EXPECT_TRUE(list.empty());
}

TEST(SlotList, FifoOrderAcrossBlockGrowth) {
  SlotPool pool;
  SlotList list;
  const std::size_t n = 3 * kBlock + 5;
  for (std::size_t i = 0; i < n; ++i) list.push(pool, tagged(i));
  EXPECT_EQ(pool.blocks(), 4u);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_FALSE(list.empty());
    EXPECT_EQ(list.front().birth_cycle, i);
    list.pop(pool);
  }
  EXPECT_TRUE(list.empty());
}

// A list drained to empty and refilled must read only the new messages:
// the pop that empties it has to clear the tail as well as the head.
TEST(SlotList, RefillsAfterDraining) {
  SlotPool pool;
  SlotList list;
  std::uint64_t next_in = 0, next_out = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i <= round % 3; ++i) list.push(pool, tagged(next_in++));
    while (!list.empty()) {
      EXPECT_EQ(list.front().birth_cycle, next_out++);
      list.pop(pool);
    }
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_EQ(pool.blocks(), 1u);
}

// ---------------------------------------------------------------------------
// Lane: a slot list, an occupancy word and the fifo_depth bound — the
// shape of one (cell, lane) in CellSoA. The view is two pointers and a
// capacity, so state persists in the backing words across view copies,
// and the all-zero backing must read as an empty lane.

struct LaneBacking {
  SlotList list;
  std::uint32_t size = 0;
  [[nodiscard]] Lane view() { return {&list, &size, 4}; }
};

TEST(Lane, ZeroedBackingIsEmpty) {
  LaneBacking lane;
  EXPECT_TRUE(lane.view().empty());
  EXPECT_EQ(lane.view().size(), 0u);
  EXPECT_EQ(lane.view().capacity(), 4u);
  EXPECT_TRUE(lane.view().has_room());
}

TEST(Lane, HasRoomUntilFifoDepth) {
  SlotPool pool;
  LaneBacking lane;
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(lane.view().has_room());
    lane.view().push(pool, tagged(i));
    EXPECT_EQ(lane.view().size(), i + 1);
  }
  EXPECT_FALSE(lane.view().has_room());
  lane.view().pop(pool);
  EXPECT_TRUE(lane.view().has_room());
}

TEST(Lane, FifoOrderAcrossViewCopiesAndRefills) {
  SlotPool pool;
  LaneBacking lane;
  std::uint64_t next_in = 0, next_out = 0;
  // Fill, then drain in uneven bursts, emptying the lane now and then.
  for (int round = 0; round < 50; ++round) {
    while (lane.view().has_room()) lane.view().push(pool, tagged(next_in++));
    for (int k = 0; k < 1 + round % 4; ++k) {
      EXPECT_EQ(lane.view().front().birth_cycle, next_out++);
      lane.view().pop(pool);
    }
  }
  while (!lane.view().empty()) {
    EXPECT_EQ(lane.view().front().birth_cycle, next_out++);
    lane.view().pop(pool);
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_TRUE(lane.list.empty());
  EXPECT_EQ(pool.blocks(), 1u);
}

TEST(Lane, SizeWordIdentifiesTheLane) {
  LaneBacking a;
  LaneBacking b;
  EXPECT_EQ(a.view().size_word(), &a.size);
  EXPECT_NE(a.view().size_word(), b.view().size_word());
}

// The misuse guards are fatal_misuse-based rather than assert-based so
// that the contract — callers gate on has_room()/empty() — holds in
// Release builds too (NDEBUG compiles assert out). Each death test pins
// both the abort and the diagnostic naming the violated contract.
TEST(LaneDeathTest, PushOnFullAborts) {
  SlotPool pool;
  LaneBacking lane;
  for (int i = 0; i < 4; ++i) lane.view().push(pool, tagged(i));
  EXPECT_FALSE(lane.view().has_room());
  EXPECT_DEATH(lane.view().push(pool, tagged(5)),
               "fatal misuse: Lane::push on a full lane");
}

TEST(LaneDeathTest, PopOnEmptyAborts) {
  SlotPool pool;
  LaneBacking lane;
  EXPECT_DEATH(lane.view().pop(pool),
               "fatal misuse: Lane::pop on an empty lane");
}

TEST(LaneDeathTest, PopAfterDrainAborts) {
  SlotPool pool;
  LaneBacking lane;
  lane.view().push(pool, tagged(1));
  lane.view().pop(pool);
  EXPECT_DEATH(lane.view().pop(pool),
               "fatal misuse: Lane::pop on an empty lane");
}

TEST(SlotListDeathTest, PopOnEmptyAborts) {
  SlotPool pool;
  SlotList list;
  EXPECT_DEATH(list.pop(pool), "fatal misuse: SlotList::pop on an empty list");
  list.push(pool, tagged(1));
  list.pop(pool);
  EXPECT_DEATH(list.pop(pool), "fatal misuse: SlotList::pop on an empty list");
}

}  // namespace
}  // namespace ccastream::sim
