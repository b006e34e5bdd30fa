// End-to-end integration: full streaming experiments on schedules like the
// paper's, checking cross-module invariants (quiescence, stats consistency,
// determinism, BFS correctness per increment, allocator/routing matrix).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "test_util.hpp"

namespace ccastream {
namespace {

using test::small_chip_config;

struct Pipeline {
  Pipeline(sim::ChipConfig cfg, std::uint64_t nverts, std::uint32_t edge_capacity) {
    chip = std::make_unique<sim::Chip>(cfg);
    graph::RpvoConfig rc;
    rc.edge_capacity = edge_capacity;
    proto = std::make_unique<graph::GraphProtocol>(*chip, rc);
    bfs = std::make_unique<apps::StreamingBfs>(*proto);
    bfs->install();
    graph::GraphConfig gc;
    gc.num_vertices = nverts;
    gc.root_init = apps::StreamingBfs::initial_state();
    g = std::make_unique<graph::StreamingGraph>(*proto, gc);
  }
  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<graph::GraphProtocol> proto;
  std::unique_ptr<apps::StreamingBfs> bfs;
  std::unique_ptr<graph::StreamingGraph> g;
};

TEST(Integration, FullStreamingBfsRunWithReports) {
  auto cfg = small_chip_config();
  cfg.record_activation = true;
  Pipeline p(cfg, 200, 8);
  const auto sched = wl::make_graphchallenge_like(
      200, 1500, wl::SamplingKind::kEdge, 10, 100);
  p.bfs->set_source(*p.g, 0);

  base::DynamicBfs oracle(200, 0);
  std::uint64_t total_cycles = 0;
  for (const auto& inc : sched.increments) {
    const auto report = p.g->stream_increment(inc);
    oracle.apply_increment(inc);
    EXPECT_EQ(report.edges, inc.size());
    EXPECT_GT(report.cycles, 0u);
    total_cycles += report.cycles;
    ASSERT_TRUE(p.chip->quiescent());
  }
  EXPECT_EQ(total_cycles, p.chip->stats().cycles);
  EXPECT_EQ(p.chip->activation().samples().size(), p.chip->stats().cycles);

  for (std::uint64_t v = 0; v < 200; ++v) {
    const rt::Word want = oracle.level_of(v) == base::kUnreached
                              ? apps::StreamingBfs::kUnreached
                              : oracle.level_of(v);
    ASSERT_EQ(p.bfs->level_of(*p.g, v), want);
  }
}

TEST(Integration, StatsInternallyConsistent) {
  Pipeline p(small_chip_config(), 100, 4);
  const auto sched = wl::make_graphchallenge_like(
      100, 800, wl::SamplingKind::kSnowball, 5, 101);
  p.bfs->set_source(*p.g, sched.seed_vertex);
  for (const auto& inc : sched.increments) p.g->stream_increment(inc);

  const auto& s = p.chip->stats();
  // Every created action is eventually executed or faulted.
  EXPECT_EQ(s.actions_created + s.tasks_scheduled, s.actions_executed + s.faults);
  // Everything staged is delivered (all messages reach a real target).
  EXPECT_EQ(s.messages_staged + s.io_injections, s.deliveries);
  // Ingest accounting: every streamed edge is inserted exactly once.
  EXPECT_EQ(p.proto->stats().edges_inserted, sched.total_edges());
  // Ghost protocol: links made + failures == allocations started.
  EXPECT_EQ(p.proto->stats().ghost_links_made +
                p.proto->stats().ghost_alloc_failures,
            p.proto->stats().ghost_allocs_started);
  EXPECT_EQ(s.faults, 0u);
  EXPECT_GT(s.hops, 0u);
  EXPECT_GT(p.chip->energy_pj(), 0.0);
}

TEST(Integration, DeterministicEndToEnd) {
  auto run = [] {
    auto cfg = small_chip_config();
    cfg.seed = 2024;
    Pipeline p(cfg, 150, 4);
    const auto sched = wl::make_graphchallenge_like(
        150, 1200, wl::SamplingKind::kEdge, 4, 55);
    p.bfs->set_source(*p.g, 0);
    std::vector<std::uint64_t> cycles;
    for (const auto& inc : sched.increments) {
      cycles.push_back(p.g->stream_increment(inc).cycles);
    }
    return std::pair{cycles, p.chip->stats().hops};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

struct MatrixCase {
  rt::AllocPolicyKind alloc;
  sim::RoutingPolicyKind routing;
  graph::PlacementPolicy placement;
};

class ConfigMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ConfigMatrix, StreamingBfsCorrectUnderAllConfigs) {
  const auto m = GetParam();
  auto cfg = small_chip_config();
  cfg.alloc_policy = m.alloc;
  cfg.routing = m.routing;

  auto chip = std::make_unique<sim::Chip>(cfg);
  graph::RpvoConfig rc;
  rc.edge_capacity = 3;
  graph::GraphProtocol proto(*chip, rc);
  apps::StreamingBfs bfs(proto);
  bfs.install();
  graph::GraphConfig gc;
  gc.num_vertices = 80;
  gc.placement = m.placement;
  gc.root_init = apps::StreamingBfs::initial_state();
  graph::StreamingGraph g(proto, gc);

  rt::Xoshiro256 rng(7);
  std::vector<StreamEdge> edges;
  for (int i = 0; i < 400; ++i) edges.push_back({rng.below(80), rng.below(80), 1});
  bfs.set_source(g, 3);
  g.stream_increment(edges);

  const auto ref = base::bfs_levels(test::ref_graph_of(80, edges), 3);
  for (std::uint64_t v = 0; v < 80; ++v) {
    const rt::Word want = ref[v] == base::kUnreached
                              ? apps::StreamingBfs::kUnreached
                              : ref[v];
    ASSERT_EQ(bfs.level_of(g, v), want) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ConfigMatrix,
    ::testing::Values(
        MatrixCase{rt::AllocPolicyKind::kVicinity, sim::RoutingPolicyKind::kYX,
                   graph::PlacementPolicy::kRoundRobin},
        MatrixCase{rt::AllocPolicyKind::kVicinity, sim::RoutingPolicyKind::kXY,
                   graph::PlacementPolicy::kBlocked},
        MatrixCase{rt::AllocPolicyKind::kRandom, sim::RoutingPolicyKind::kYX,
                   graph::PlacementPolicy::kRandom},
        MatrixCase{rt::AllocPolicyKind::kRandom,
                   sim::RoutingPolicyKind::kWestFirst,
                   graph::PlacementPolicy::kRoundRobin},
        MatrixCase{rt::AllocPolicyKind::kRoundRobin,
                   sim::RoutingPolicyKind::kYX,
                   graph::PlacementPolicy::kBlocked},
        MatrixCase{rt::AllocPolicyKind::kLocal, sim::RoutingPolicyKind::kXY,
                   graph::PlacementPolicy::kRandom},
        MatrixCase{rt::AllocPolicyKind::kVicinity,
                   sim::RoutingPolicyKind::kOddEven,
                   graph::PlacementPolicy::kRoundRobin},
        MatrixCase{rt::AllocPolicyKind::kRandom,
                   sim::RoutingPolicyKind::kOddEven,
                   graph::PlacementPolicy::kRandom}));

TEST(Integration, TinyFifosStillDrainCorrectly) {
  // Extreme backpressure: FIFO depth 1 must still deliver everything
  // (dimension-ordered routing is deadlock-free for any positive depth).
  auto cfg = small_chip_config();
  cfg.fifo_depth = 1;
  Pipeline p(cfg, 60, 2);
  rt::Xoshiro256 rng(13);
  std::vector<StreamEdge> edges;
  for (int i = 0; i < 500; ++i) edges.push_back({rng.below(60), rng.below(60), 1});
  p.bfs->set_source(*p.g, 0);
  const auto report = p.g->stream_increment(edges, /*max_cycles=*/2'000'000);
  ASSERT_TRUE(p.chip->quiescent()) << "possible deadlock with depth-1 FIFOs";
  EXPECT_EQ(p.proto->stats().edges_inserted, 500u);
  EXPECT_GT(report.stats_delta.stage_stalls, 0u);  // backpressure happened

  const auto ref = base::bfs_levels(test::ref_graph_of(60, edges), 0);
  for (std::uint64_t v = 0; v < 60; ++v) {
    const rt::Word want = ref[v] == base::kUnreached
                              ? apps::StreamingBfs::kUnreached
                              : ref[v];
    ASSERT_EQ(p.bfs->level_of(*p.g, v), want);
  }
}

TEST(Integration, PaperShapeSnowballIngestionGrowsPerIncrement) {
  // Qualitative Figure 8/9 shape check at test scale: snowball increments
  // grow, so ingestion cycles grow. A small chip with few IO cells keeps
  // injection (which scales with increment size) dominant over the
  // fixed drain-latency overhead, as at paper scale.
  auto cfg = small_chip_config(4);  // 4x4 chip, 8 IO cells
  Pipeline p(cfg, 200, 8);
  p.proto->set_hooks(graph::AppHooks{});  // ingestion only
  const auto sched = wl::make_graphchallenge_like(
      200, 12000, wl::SamplingKind::kSnowball, 10, 103);
  std::vector<std::uint64_t> cycles;
  for (const auto& inc : sched.increments) {
    cycles.push_back(p.g->stream_increment(inc).cycles);
  }
  EXPECT_LT(cycles.front() * 2, cycles.back())
      << "snowball ingestion should ramp with increment size";
  // And the paper's companion observation: the ramp is roughly monotone.
  const auto first3 = cycles[0] + cycles[1] + cycles[2];
  const auto last3 = cycles[7] + cycles[8] + cycles[9];
  EXPECT_LT(first3 * 2, last3);
}

}  // namespace
}  // namespace ccastream
