// Streaming dynamic BFS correctness: the chip's asynchronous diffusion must
// converge, after every increment, to exactly the BFS levels a sequential
// oracle computes on the same edge set (the paper verifies against
// NetworkX; we verify against baseline::DynamicBfs / bfs_levels).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "test_util.hpp"

namespace ccastream::apps {
namespace {

using test::small_chip_config;

struct BfsFixture {
  explicit BfsFixture(std::uint64_t nverts, sim::ChipConfig cfg = small_chip_config(),
                      graph::RpvoConfig rc = {}) {
    chip = std::make_unique<sim::Chip>(cfg);
    proto = std::make_unique<graph::GraphProtocol>(*chip, rc);
    bfs = std::make_unique<StreamingBfs>(*proto);
    bfs->install();
    graph::GraphConfig gc;
    gc.num_vertices = nverts;
    gc.root_init = StreamingBfs::initial_state();
    g = std::make_unique<graph::StreamingGraph>(*proto, gc);
  }

  void expect_levels_match(const std::vector<std::uint64_t>& expected) {
    for (std::uint64_t v = 0; v < expected.size(); ++v) {
      const rt::Word got = bfs->level_of(*g, v);
      const rt::Word want = expected[v] == base::kUnreached
                                ? StreamingBfs::kUnreached
                                : expected[v];
      ASSERT_EQ(got, want) << "vertex " << v;
    }
  }

  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<graph::GraphProtocol> proto;
  std::unique_ptr<StreamingBfs> bfs;
  std::unique_ptr<graph::StreamingGraph> g;
};

TEST(StreamingBfs, PathGraph) {
  BfsFixture f(5);
  f.bfs->set_source(*f.g, 0);
  f.g->stream_increment(
      std::vector<StreamEdge>{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}});
  for (std::uint64_t v = 0; v < 5; ++v) EXPECT_EQ(f.bfs->level_of(*f.g, v), v);
}

TEST(StreamingBfs, EdgeArrivalOrderIrrelevant) {
  // The path's edges arrive in reverse: later edges must still pick up the
  // level once the earlier part of the path connects.
  BfsFixture f(5);
  f.bfs->set_source(*f.g, 0);
  f.g->stream_increment(
      std::vector<StreamEdge>{{3, 4, 1}, {2, 3, 1}, {1, 2, 1}, {0, 1, 1}});
  for (std::uint64_t v = 0; v < 5; ++v) EXPECT_EQ(f.bfs->level_of(*f.g, v), v);
}

TEST(StreamingBfs, UnreachableStaysUnreached) {
  BfsFixture f(4);
  f.bfs->set_source(*f.g, 0);
  f.g->stream_increment(std::vector<StreamEdge>{{0, 1, 1}, {2, 3, 1}});
  EXPECT_EQ(f.bfs->level_of(*f.g, 1), 1u);
  EXPECT_EQ(f.bfs->level_of(*f.g, 2), StreamingBfs::kUnreached);
  EXPECT_EQ(f.bfs->level_of(*f.g, 3), StreamingBfs::kUnreached);
}

TEST(StreamingBfs, ShortcutEdgeLowersLevels) {
  BfsFixture f(6);
  f.bfs->set_source(*f.g, 0);
  f.g->stream_increment(std::vector<StreamEdge>{
      {0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 5, 1}});
  EXPECT_EQ(f.bfs->level_of(*f.g, 5), 5u);
  // Streaming a shortcut 0 -> 4 must incrementally drop levels 4 and 5
  // without any recompute-from-scratch.
  f.g->stream_increment(std::vector<StreamEdge>{{0, 4, 1}});
  EXPECT_EQ(f.bfs->level_of(*f.g, 4), 1u);
  EXPECT_EQ(f.bfs->level_of(*f.g, 5), 2u);
}

TEST(StreamingBfs, KickOnPrebuiltGraph) {
  // Build with BFS hooks installed but no source: nothing diffuses.
  BfsFixture f(4);
  f.g->stream_increment(std::vector<StreamEdge>{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}});
  for (std::uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(f.bfs->level_of(*f.g, v), StreamingBfs::kUnreached);
  }
  // Seed afterwards: the kick action floods the existing structure.
  f.bfs->kick_source(*f.g, 0);
  f.g->run();
  for (std::uint64_t v = 0; v < 4; ++v) EXPECT_EQ(f.bfs->level_of(*f.g, v), v);
}

TEST(StreamingBfs, OutOfRangeSourceThrows) {
  // A source id past the graph must not index past its roots.
  BfsFixture f(4);
  EXPECT_THROW(f.bfs->set_source(*f.g, 4), std::out_of_range);
  EXPECT_THROW(f.bfs->kick_source(*f.g, 5000), std::out_of_range);
  EXPECT_TRUE(f.chip->quiescent());
}

TEST(StreamingBfs, LevelsSurviveGhostChains) {
  // Tiny fragments force ghosts everywhere; levels must be identical.
  graph::RpvoConfig rc;
  rc.edge_capacity = 1;
  BfsFixture f(8, small_chip_config(), rc);
  f.bfs->set_source(*f.g, 0);
  std::vector<StreamEdge> star;
  for (std::uint64_t v = 1; v < 8; ++v) star.push_back({0, v, 1});
  for (std::uint64_t v = 1; v < 8; ++v) star.push_back({v, 0, 1});
  f.g->stream_increment(star);
  for (std::uint64_t v = 1; v < 8; ++v) EXPECT_EQ(f.bfs->level_of(*f.g, v), 1u);
}

// Property sweep: random graphs, streamed in random increments, across
// chip/RPVO/policy configurations — levels equal the oracle's after every
// increment.
struct BfsCase {
  std::uint64_t vertices;
  std::uint64_t edges;
  std::uint32_t edge_capacity;
  rt::AllocPolicyKind policy;
  sim::RoutingPolicyKind routing;
  std::uint64_t seed;
};

class BfsEquivalence : public ::testing::TestWithParam<BfsCase> {};

TEST_P(BfsEquivalence, MatchesOracleAfterEveryIncrement) {
  const auto p = GetParam();
  auto cfg = small_chip_config();
  cfg.alloc_policy = p.policy;
  cfg.routing = p.routing;
  cfg.seed = p.seed;
  graph::RpvoConfig rc;
  rc.edge_capacity = p.edge_capacity;
  BfsFixture f(p.vertices, cfg, rc);

  rt::Xoshiro256 rng(p.seed);
  std::vector<StreamEdge> all;
  for (std::uint64_t i = 0; i < p.edges; ++i) {
    all.push_back({rng.below(p.vertices), rng.below(p.vertices), 1});
  }
  const std::uint64_t source = rng.below(p.vertices);
  f.bfs->set_source(*f.g, source);
  base::DynamicBfs oracle(p.vertices, source);

  const std::size_t half = all.size() / 2;
  const std::vector<StreamEdge> inc1(all.begin(), all.begin() + half);
  const std::vector<StreamEdge> inc2(all.begin() + half, all.end());
  for (const auto& inc : {inc1, inc2}) {
    f.g->stream_increment(inc);
    oracle.insert_increment(inc);
    ASSERT_TRUE(f.chip->quiescent());
    for (std::uint64_t v = 0; v < p.vertices; ++v) {
      const rt::Word want = oracle.level_of(v) == base::kUnreached
                                ? StreamingBfs::kUnreached
                                : oracle.level_of(v);
      ASSERT_EQ(f.bfs->level_of(*f.g, v), want)
          << "vertex " << v << " seed " << p.seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BfsEquivalence,
    ::testing::Values(
        BfsCase{16, 40, 4, rt::AllocPolicyKind::kVicinity,
                sim::RoutingPolicyKind::kYX, 1},
        BfsCase{32, 120, 2, rt::AllocPolicyKind::kVicinity,
                sim::RoutingPolicyKind::kYX, 2},
        BfsCase{64, 300, 8, rt::AllocPolicyKind::kRandom,
                sim::RoutingPolicyKind::kYX, 3},
        BfsCase{64, 300, 4, rt::AllocPolicyKind::kVicinity,
                sim::RoutingPolicyKind::kXY, 4},
        BfsCase{64, 300, 4, rt::AllocPolicyKind::kVicinity,
                sim::RoutingPolicyKind::kWestFirst, 5},
        BfsCase{100, 600, 3, rt::AllocPolicyKind::kRoundRobin,
                sim::RoutingPolicyKind::kYX, 6},
        BfsCase{128, 1000, 16, rt::AllocPolicyKind::kVicinity,
                sim::RoutingPolicyKind::kYX, 7},
        BfsCase{40, 80, 1, rt::AllocPolicyKind::kLocal,
                sim::RoutingPolicyKind::kYX, 8},
        BfsCase{200, 1500, 4, rt::AllocPolicyKind::kVicinity,
                sim::RoutingPolicyKind::kYX, 9},
        BfsCase{64, 500, 2, rt::AllocPolicyKind::kRandom,
                sim::RoutingPolicyKind::kWestFirst, 10}));

TEST(StreamingBfs, SbmScheduleBothSamplings) {
  for (const auto kind : {wl::SamplingKind::kEdge, wl::SamplingKind::kSnowball}) {
    auto cfg = small_chip_config();
    BfsFixture f(300, cfg);
    const auto sched = wl::make_graphchallenge_like(300, 2000, kind, 5, 77);
    const std::uint64_t source =
        kind == wl::SamplingKind::kSnowball ? sched.seed_vertex : 0;
    f.bfs->set_source(*f.g, source);
    base::DynamicBfs oracle(300, source);
    for (const auto& inc : sched.increments) {
      f.g->stream_increment(inc);
      oracle.insert_increment(inc);
    }
    for (std::uint64_t v = 0; v < 300; ++v) {
      const rt::Word want = oracle.level_of(v) == base::kUnreached
                                ? StreamingBfs::kUnreached
                                : oracle.level_of(v);
      ASSERT_EQ(f.bfs->level_of(*f.g, v), want)
          << "vertex " << v << " sampling " << wl::to_string(kind);
    }
  }
}

TEST(StreamingBfs, IngestionOnlyModeDoesNotCompute) {
  // The paper's ingestion-only experiment: hooks removed, edges stream, no
  // bfs-action is ever created.
  auto cfg = small_chip_config();
  BfsFixture f(16, cfg);
  f.proto->set_hooks(graph::AppHooks{});  // disable the BFS chaining
  f.bfs->set_source(*f.g, 0);
  f.g->stream_increment(std::vector<StreamEdge>{{0, 1, 1}, {1, 2, 1}});
  EXPECT_EQ(f.bfs->level_of(*f.g, 1), StreamingBfs::kUnreached);
  EXPECT_EQ(f.bfs->level_of(*f.g, 2), StreamingBfs::kUnreached);
  EXPECT_EQ(f.g->stored_degree(0), 1u);  // ingestion itself still works
}

}  // namespace
}  // namespace ccastream::apps
