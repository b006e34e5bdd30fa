// Unit tests: the FIFO family of sim/fifo.hpp — the non-owning slab-lane
// ring buffer (FifoView) and the unbounded lazily allocated ring queue
// (RingQueue). Each gets ordering/wrap behaviour plus its always-on misuse
// guards (push-on-full and pop-on-empty abort in every build type, not
// just debug; see the header comment in sim/fifo.hpp).
#include <gtest/gtest.h>

#include <cstdint>

#include "sim/fifo.hpp"

namespace ccastream::sim {
namespace {

// ---------------------------------------------------------------------------
// FifoView: a bounded ring over caller-owned storage — the shape of one
// (cell, lane) slab slice in CellSoA. The view is three pointers, so state
// persists in the backing words across view copies, and the all-zero
// backing state must read as a valid empty FIFO (the slab's calloc pages
// are never explicitly initialised).

struct LaneBacking {
  int buf[4] = {0, 0, 0, 0};
  std::uint32_t head = 0;
  std::uint32_t size = 0;
  [[nodiscard]] FifoView<int> view() { return {buf, &head, &size, 4}; }
};

TEST(FifoView, ZeroedBackingIsEmpty) {
  LaneBacking lane;
  EXPECT_TRUE(lane.view().empty());
  EXPECT_EQ(lane.view().size(), 0u);
  EXPECT_EQ(lane.view().capacity(), 4u);
  EXPECT_TRUE(lane.view().has_room());
}

TEST(FifoView, FifoOrderAcrossViewCopies) {
  LaneBacking lane;
  lane.view().push(1);
  lane.view().push(2);
  // Every call constructs a fresh view: ordering lives in the backing
  // words, not the view object.
  EXPECT_EQ(lane.view().front(), 1);
  lane.view().pop();
  lane.view().push(3);
  EXPECT_EQ(lane.view().front(), 2);
  lane.view().pop();
  EXPECT_EQ(lane.view().front(), 3);
}

TEST(FifoView, WrapsAroundManyTimes) {
  LaneBacking lane;
  for (int i = 0; i < 100; ++i) {
    lane.view().push(i);
    EXPECT_EQ(lane.view().front(), i);
    lane.view().pop();
  }
  EXPECT_TRUE(lane.view().empty());
  EXPECT_EQ(lane.head, 100u % 4u);
}

TEST(FifoView, FullReportsNoRoom) {
  LaneBacking lane;
  for (int i = 0; i < 3; ++i) lane.view().push(i);
  EXPECT_TRUE(lane.view().has_room());
  lane.view().push(3);
  EXPECT_FALSE(lane.view().has_room());
  lane.view().pop();
  EXPECT_TRUE(lane.view().has_room());
}

TEST(FifoView, InterleavedWrap) {
  LaneBacking lane;
  int next_in = 0, next_out = 0;
  // Fill, then drain in uneven bursts, so pushes and pops wrap past the
  // end of the ring in the middle of a burst.
  for (int round = 0; round < 50; ++round) {
    while (lane.view().has_room()) lane.view().push(next_in++);
    for (int k = 0; k < 1 + round % 4; ++k) {
      EXPECT_EQ(lane.view().front(), next_out++);
      lane.view().pop();
    }
  }
  while (!lane.view().empty()) {
    EXPECT_EQ(lane.view().front(), next_out++);
    lane.view().pop();
  }
  EXPECT_EQ(next_in, next_out);
}

TEST(FifoView, SizeWordIdentifiesTheLane) {
  LaneBacking a;
  LaneBacking b;
  EXPECT_EQ(a.view().size_word(), &a.size);
  EXPECT_NE(a.view().size_word(), b.view().size_word());
}

// The misuse guards are fatal_misuse-based rather than assert-based so
// that the contract — callers gate on has_room()/empty() — holds in
// Release builds too (NDEBUG compiles assert out). Each death test pins
// both the abort and the diagnostic naming the violated contract.
TEST(FifoViewDeathTest, PushOnFullAborts) {
  LaneBacking lane;
  for (int i = 0; i < 4; ++i) lane.view().push(i);
  EXPECT_FALSE(lane.view().has_room());
  EXPECT_DEATH(lane.view().push(5),
               "fatal misuse: FifoView::push on a full FIFO");
}

TEST(FifoViewDeathTest, PopOnEmptyAborts) {
  LaneBacking lane;
  EXPECT_DEATH(lane.view().pop(),
               "fatal misuse: FifoView::pop on an empty FIFO");
}

TEST(FifoViewDeathTest, PopAfterDrainAborts) {
  LaneBacking lane;
  lane.view().push(1);
  lane.view().pop();
  EXPECT_DEATH(lane.view().pop(),
               "fatal misuse: FifoView::pop on an empty FIFO");
}

// ---------------------------------------------------------------------------
// RingQueue: the unbounded deque replacement for per-cell work queues. Key
// properties: an untouched queue allocates nothing, growth preserves FIFO
// order across the wrap, and pop-on-empty is the same always-on abort as
// the bounded variants.

TEST(RingQueue, StartsEmptyWithoutAllocating) {
  const RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(RingQueue, FifoOrderThroughGrowth) {
  RingQueue<int> q;
  // Push enough to force several doublings (8 -> 16 -> 32 -> 64).
  for (int i = 0; i < 50; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueue, GrowthFromWrappedState) {
  RingQueue<int> q;
  int next_in = 0, next_out = 0;
  // Advance head so the ring is wrapped, then force a grow mid-wrap: the
  // copy-out must linearise the wrapped contents.
  for (int round = 0; round < 6; ++round) {
    q.push_back(next_in++);
    q.push_back(next_in++);
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  for (int i = 0; i < 40; ++i) q.push_back(next_in++);
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_in, next_out);
}

TEST(RingQueueDeathTest, PopOnEmptyAborts) {
  RingQueue<int> q;
  EXPECT_DEATH(q.pop_front(),
               "fatal misuse: RingQueue::pop_front on an empty queue");
}

TEST(RingQueueDeathTest, PopAfterDrainAborts) {
  RingQueue<int> q;
  q.push_back(1);
  q.pop_front();
  EXPECT_DEATH(q.pop_front(),
               "fatal misuse: RingQueue::pop_front on an empty queue");
}

}  // namespace
}  // namespace ccastream::sim
