// Chip instrumentation: per-handler profiles and per-cell load counters.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "test_util.hpp"

namespace ccastream::sim {
namespace {

using rt::Action;
using rt::make_action;
using test::small_chip_config;

class Obj final : public rt::ArenaObject {
 public:
  [[nodiscard]] std::size_t logical_bytes() const noexcept override { return 16; }
};

TEST(Profiling, HandlerProfileCountsExecutionsAndInstructions) {
  auto cfg = small_chip_config();
  cfg.action_base_cost = 2;
  Chip chip(cfg);
  const auto tgt = *chip.host_allocate(5, std::make_unique<Obj>());
  const rt::HandlerId cheap = chip.handlers().register_handler(
      "cheap", [](rt::Context&, const Action&) {});
  const rt::HandlerId costly = chip.handlers().register_handler(
      "costly", [](rt::Context& ctx, const Action&) { ctx.charge(8); });

  for (int i = 0; i < 3; ++i) chip.inject_local(make_action(cheap, tgt));
  chip.inject_local(make_action(costly, tgt));
  chip.run_until_quiescent();

  const auto& prof = chip.handler_profile();
  ASSERT_GT(prof.size(), static_cast<std::size_t>(costly));
  EXPECT_EQ(prof[cheap].executions, 3u);
  EXPECT_EQ(prof[cheap].instructions, 6u);   // 3 x base cost 2
  EXPECT_EQ(prof[costly].executions, 1u);
  EXPECT_EQ(prof[costly].instructions, 10u);  // base 2 + charged 8
}

TEST(Profiling, CellLoadTracksWhereWorkHappened) {
  Chip chip(small_chip_config());
  const auto hot = *chip.host_allocate(42, std::make_unique<Obj>());
  const rt::HandlerId h = chip.handlers().register_handler(
      "h", [](rt::Context& ctx, const Action&) { ctx.charge(5); });
  for (int i = 0; i < 4; ++i) chip.inject_local(make_action(h, hot));
  chip.run_until_quiescent();

  const auto& load = chip.cell_load();
  ASSERT_EQ(load.size(), 64u);
  // All compute happened on cell 42 (no messages were sent).
  EXPECT_GE(load[42], 4u * 7u);  // 4 dispatches x (base 2 + 5) cycles
  const auto total = std::accumulate(load.begin(), load.end(), std::uint64_t{0});
  EXPECT_EQ(total, load[42]);
}

TEST(Profiling, CellLoadSpreadsWithDiffusion) {
  auto cfg = small_chip_config();
  Chip chip(cfg);
  graph::GraphProtocol proto(chip);
  graph::GraphConfig gc;
  gc.num_vertices = 64;
  graph::StreamingGraph g(proto, gc);
  rt::Xoshiro256 rng(8);
  std::vector<StreamEdge> edges;
  for (int i = 0; i < 400; ++i) edges.push_back({rng.below(64), rng.below(64), 1});
  g.stream_increment(edges);

  const auto& load = chip.cell_load();
  const auto busy_cells = static_cast<std::size_t>(
      std::count_if(load.begin(), load.end(), [](auto v) { return v > 0; }));
  EXPECT_GT(busy_cells, 32u);  // round-robin roots: most cells did work
}

}  // namespace
}  // namespace ccastream::sim
