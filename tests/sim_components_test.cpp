// Unit tests for the smaller sim components: IO system construction and
// distribution, the energy model arithmetic, and ChipStats deltas.
#include <gtest/gtest.h>

#include "runtime/geometry.hpp"
#include "sim/energy.hpp"
#include "sim/io_channel.hpp"
#include "sim/stats.hpp"

namespace ccastream::sim {
namespace {

TEST(IoSystem, SideSelectionControlsCellCount) {
  const rt::MeshGeometry mesh(8, 6);
  EXPECT_EQ(IoSystem(mesh, kIoWest).cell_count(), 6u);
  EXPECT_EQ(IoSystem(mesh, kIoEast).cell_count(), 6u);
  EXPECT_EQ(IoSystem(mesh, kIoNorth).cell_count(), 8u);
  EXPECT_EQ(IoSystem(mesh, kIoSouth).cell_count(), 8u);
  EXPECT_EQ(IoSystem(mesh, kIoWest | kIoEast).cell_count(), 12u);
  EXPECT_EQ(IoSystem(mesh, kIoNorth | kIoSouth).cell_count(), 16u);
  EXPECT_EQ(IoSystem(mesh, kIoWest | kIoEast | kIoNorth | kIoSouth).cell_count(),
            28u);
}

TEST(IoSystem, NoSidesFallsBackToOneCell) {
  const rt::MeshGeometry mesh(4, 4);
  IoSystem io(mesh, 0);
  EXPECT_EQ(io.cell_count(), 1u);  // degenerate config still streams
}

TEST(IoSystem, CellsAttachToBorderCells) {
  const rt::MeshGeometry mesh(5, 4);
  IoSystem io(mesh, kIoNorth | kIoSouth);
  for (std::size_t i = 0; i < io.cell_count(); ++i) {
    const auto c = mesh.coord_of(io.cell(i).attached_cc);
    EXPECT_TRUE(c.y == 0 || c.y == 3) << "io cell attached to interior cell";
  }
}

TEST(IoSystem, EnqueueRoundRobins) {
  const rt::MeshGeometry mesh(4, 4);
  IoSystem io(mesh, kIoWest);  // 4 cells
  for (int i = 0; i < 10; ++i) io.enqueue(rt::Action{});
  EXPECT_EQ(io.pending(), 10u);
  EXPECT_EQ(io.cell(0).pending.size(), 3u);
  EXPECT_EQ(io.cell(1).pending.size(), 3u);
  EXPECT_EQ(io.cell(2).pending.size(), 2u);
  EXPECT_EQ(io.cell(3).pending.size(), 2u);
  EXPECT_FALSE(io.drained());
}

TEST(IoSystem, EnqueueAtTargetsSpecificCell) {
  const rt::MeshGeometry mesh(4, 4);
  IoSystem io(mesh, kIoWest);
  io.enqueue_at(2, rt::Action{});
  io.enqueue_at(6, rt::Action{});  // wraps modulo cell count
  EXPECT_EQ(io.cell(2).pending.size(), 2u);
}

// The host tops a queue up between runs that did not drain it; the taken
// prefix is compacted away on a later push, and the order must survive.
TEST(IoSystem, QueueKeepsOrderAcrossPartialDrainsAndRefills) {
  const rt::MeshGeometry mesh(4, 4);
  IoSystem io(mesh, kIoWest);
  auto tagged = [](std::uint64_t tag) {
    rt::Action a;
    a.args[0] = tag;
    return a;
  };
  std::uint64_t pushed = 0, popped = 0;
  for (const int burst : {5, 3, 9, 1, 4}) {
    for (int i = 0; i < burst; ++i) io.enqueue_at(1, tagged(pushed++));
    // Take all but two, so each refill lands behind a taken prefix.
    while (io.cell(1).pending.size() > 2) {
      EXPECT_EQ(io.cell(1).pending.front().args[0], popped++);
      io.cell(1).pending.pop_front();
    }
    EXPECT_EQ(io.pending(), pushed - popped);
  }
  while (!io.cell(1).pending.empty()) {
    EXPECT_EQ(io.cell(1).pending.front().args[0], popped++);
    io.cell(1).pending.pop_front();
  }
  EXPECT_EQ(popped, pushed);
  EXPECT_TRUE(io.drained());
}

TEST(EnergyModel, TotalIsLinearInEvents) {
  EnergyModel m;
  EnergyEvents e;
  EXPECT_DOUBLE_EQ(total_pj(m, e), 0.0);
  e.instructions = 10;
  e.hops = 5;
  e.stages = 3;
  e.deliveries = 2;
  e.allocations = 1;
  e.io_injections = 4;
  const double expect = 10 * m.instruction_pj + 5 * m.hop_pj + 3 * m.stage_pj +
                        2 * m.delivery_pj + 1 * m.allocation_pj +
                        4 * m.io_injection_pj;
  EXPECT_DOUBLE_EQ(total_pj(m, e), expect);
  // Doubling every count doubles the energy.
  EnergyEvents e2 = e;
  e2.instructions *= 2;
  e2.hops *= 2;
  e2.stages *= 2;
  e2.deliveries *= 2;
  e2.allocations *= 2;
  e2.io_injections *= 2;
  EXPECT_DOUBLE_EQ(total_pj(m, e2), 2 * expect);
}

TEST(EnergyModel, UnitConversions) {
  EXPECT_DOUBLE_EQ(pj_to_uj(1e6), 1.0);
  EXPECT_DOUBLE_EQ(cycles_to_us(22000), 22.0);       // 1 GHz
  EXPECT_DOUBLE_EQ(cycles_to_us(22000, 2.0), 11.0);  // 2 GHz
}

TEST(ChipStats, DeltaSubtractsEveryCounter) {
  ChipStats a;
  a.cycles = 100;
  a.actions_created = 50;
  a.actions_executed = 40;
  a.instructions = 200;
  a.hops = 300;
  a.deliveries = 30;
  a.total_delivery_latency = 900;
  ChipStats b = a;
  b.cycles = 150;
  b.actions_created = 80;
  b.actions_executed = 70;
  b.instructions = 260;
  b.hops = 450;
  b.deliveries = 45;
  b.total_delivery_latency = 1500;

  const ChipStats d = b.delta_since(a);
  EXPECT_EQ(d.cycles, 50u);
  EXPECT_EQ(d.actions_created, 30u);
  EXPECT_EQ(d.actions_executed, 30u);
  EXPECT_EQ(d.instructions, 60u);
  EXPECT_EQ(d.hops, 150u);
  EXPECT_EQ(d.deliveries, 15u);
  EXPECT_DOUBLE_EQ(d.mean_delivery_latency(), 600.0 / 15.0);
  EXPECT_DOUBLE_EQ(d.mean_hops(), 10.0);
}

TEST(ChipStats, MeansAreZeroWhenNothingDelivered) {
  const ChipStats s;
  EXPECT_DOUBLE_EQ(s.mean_delivery_latency(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean_hops(), 0.0);
}

TEST(ChipStats, EnergyEventsViewMatchesCounters) {
  ChipStats s;
  s.instructions = 7;
  s.hops = 8;
  s.messages_staged = 9;
  s.deliveries = 10;
  s.allocations = 11;
  s.io_injections = 12;
  const auto e = s.energy_events();
  EXPECT_EQ(e.instructions, 7u);
  EXPECT_EQ(e.hops, 8u);
  EXPECT_EQ(e.stages, 9u);
  EXPECT_EQ(e.deliveries, 10u);
  EXPECT_EQ(e.allocations, 11u);
  EXPECT_EQ(e.io_injections, 12u);
}

}  // namespace
}  // namespace ccastream::sim
