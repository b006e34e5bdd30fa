// Heap blocks of graph construction and of the IO queues. A root fragment
// is one block (header, edge slots and ghost futures together), and the
// roots-to-vid index adds none per root, so building a graph costs one
// allocation per root plus the cells' arena slot tables, which grow by
// doubling. Draining an IO queue, which a partition thread does, frees
// nothing, and steady IO traffic stops allocating. A counting global
// operator new and delete see every block, which is why this suite is its
// own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/io_channel.hpp"
#include "test_util.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_frees{0};

void counted_free(void* p) noexcept {
  if (p != nullptr) g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }

namespace ccastream::graph {
namespace {

TEST(FragmentAllocations, OneHeapBlockPerRoot) {
  constexpr std::uint64_t kVertices = 10'000;
  sim::Chip chip(test::small_chip_config(32));
  GraphProtocol proto(chip);
  GraphConfig gc;
  gc.num_vertices = kVertices;

  const std::uint64_t before = g_allocations.load();
  const StreamingGraph g(proto, gc);
  const std::uint64_t allocations = g_allocations.load() - before;

  // Measured: 15 123 (10 000 fragments, 5 slot-table growths on each of
  // 1 024 cells, and the graph's three tables). A fragment of three blocks
  // and a hashed root-to-vid node made it 45 124.
  const std::uint64_t cells = chip.geometry().cell_count();
  const std::uint64_t roots_per_cell = (kVertices + cells - 1) / cells;
  const std::uint64_t slot_tables = cells * (std::bit_width(roots_per_cell) + 2);
  EXPECT_LE(allocations, kVertices + slot_tables + 16);
  EXPECT_GE(allocations, kVertices);
  EXPECT_EQ(g.vid_of_root(g.root_of(kVertices - 1)), kVertices - 1);
}

}  // namespace
}  // namespace ccastream::graph

namespace ccastream::sim {
namespace {

// The host fills an IO queue and the partition that owns its border cell
// drains it. A block the partition freed would land in the host thread's
// heap at a moment that varies from run to run (glibc files a free in the
// block's own arena), and the heap's layout, hence the peak RSS, with it.
// So draining frees nothing, and the next batch of the same size reuses
// the storage. A std::deque, which frees a block per 10 actions drained,
// fails both checks.
TEST(IoQueueAllocations, DrainingFreesNothingAndRefillsReuseTheStorage) {
  constexpr int kActions = 1'000;
  IoSystem io(rt::MeshGeometry(4, 4), kIoWest);
  for (int round = 0; round < 3; ++round) {
    const std::uint64_t allocations = g_allocations.load();
    for (int i = 0; i < kActions; ++i) io.enqueue_at(0, rt::Action{});
    if (round > 0) {
      EXPECT_EQ(g_allocations.load() - allocations, 0u) << "round " << round;
    }

    const std::uint64_t frees = g_frees.load();
    while (!io.cell(0).pending.empty()) io.cell(0).pending.pop_front();
    EXPECT_EQ(g_frees.load() - frees, 0u) << "round " << round;
  }
}

// A queue the host tops up before it is drained drops the taken prefix,
// so steady traffic stops allocating once the storage has grown to fit it.
TEST(IoQueueAllocations, PartialDrainsStopAllocatingOnceWarm) {
  constexpr int kBurst = 8;
  IoSystem io(rt::MeshGeometry(4, 4), kIoWest);
  for (int i = 0; i < 2; ++i) io.enqueue_at(0, rt::Action{});  // always waiting
  std::uint64_t warm_allocations = 0;
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t before = g_allocations.load();
    for (int i = 0; i < kBurst; ++i) io.enqueue_at(0, rt::Action{});
    for (int i = 0; i < kBurst; ++i) io.cell(0).pending.pop_front();
    if (round >= 10) warm_allocations += g_allocations.load() - before;
  }
  EXPECT_EQ(warm_allocations, 0u);
  EXPECT_EQ(io.cell(0).pending.size(), 2u);
}

}  // namespace
}  // namespace ccastream::sim
