// Bit-parallel multi-source reachability vs per-source BFS oracles.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "test_util.hpp"

namespace ccastream::apps {
namespace {

using test::small_chip_config;

struct ReachFixture {
  explicit ReachFixture(std::uint64_t nverts, std::uint32_t rhizomes = 1,
                        std::uint32_t edge_capacity = 4) {
    chip = std::make_unique<sim::Chip>(small_chip_config());
    graph::RpvoConfig rc;
    rc.edge_capacity = edge_capacity;
    proto = std::make_unique<graph::GraphProtocol>(*chip, rc);
    reach = std::make_unique<MultiSourceReach>(*proto);
    reach->install();
    graph::GraphConfig gc;
    gc.num_vertices = nverts;
    gc.rhizomes = rhizomes;
    gc.root_init = MultiSourceReach::initial_state();
    g = std::make_unique<graph::StreamingGraph>(*proto, gc);
  }
  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<graph::GraphProtocol> proto;
  std::unique_ptr<MultiSourceReach> reach;
  std::unique_ptr<graph::StreamingGraph> g;
};

TEST(MultiSourceReach, TwoSourcesOnAPath) {
  ReachFixture f(5);
  f.reach->add_source(*f.g, 0, 0);
  f.reach->add_source(*f.g, 3, 1);
  f.g->stream_increment(
      std::vector<StreamEdge>{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}});
  // Source 0 reaches everything; source 1 (at vertex 3) reaches only 3, 4.
  for (std::uint64_t v = 0; v < 5; ++v) EXPECT_TRUE(f.reach->reached(*f.g, v, 0));
  EXPECT_FALSE(f.reach->reached(*f.g, 2, 1));
  EXPECT_TRUE(f.reach->reached(*f.g, 3, 1));
  EXPECT_TRUE(f.reach->reached(*f.g, 4, 1));
  EXPECT_EQ(f.reach->reach_count(*f.g, 4), 2u);
}

TEST(MultiSourceReach, HighSourceIndexUsesUpperWords) {
  ReachFixture f(3);
  f.reach->add_source(*f.g, 0, 255);  // last bit of word 3
  f.g->stream_increment(std::vector<StreamEdge>{{0, 1, 1}, {1, 2, 1}});
  EXPECT_TRUE(f.reach->reached(*f.g, 2, 255));
  EXPECT_FALSE(f.reach->reached(*f.g, 2, 254));
}

TEST(MultiSourceReach, SourceIndexOutOfRangeThrows) {
  ReachFixture f(2);
  EXPECT_THROW(f.reach->add_source(*f.g, 0, 256), std::out_of_range);
}

TEST(MultiSourceReach, ReachedRejectsOutOfRangeSourceIndex) {
  // Index 256 would read a fifth app word past the 4-word state.
  ReachFixture f(2);
  EXPECT_THROW((void)f.reach->reached(*f.g, 0, 256), std::out_of_range);
}

TEST(MultiSourceReach, LateEdgeExtendsReachability) {
  ReachFixture f(4);
  f.reach->add_source(*f.g, 0, 7);
  f.g->stream_increment(std::vector<StreamEdge>{{0, 1, 1}, {2, 3, 1}});
  EXPECT_FALSE(f.reach->reached(*f.g, 3, 7));
  f.g->stream_increment(std::vector<StreamEdge>{{1, 2, 1}});  // bridge
  EXPECT_TRUE(f.reach->reached(*f.g, 3, 7));
}

struct ReachCase {
  std::uint64_t vertices;
  std::uint64_t edges;
  std::uint32_t sources;
  std::uint32_t rhizomes;
  std::uint32_t edge_capacity;
  std::uint64_t seed;
};

class ReachEquivalence : public ::testing::TestWithParam<ReachCase> {};

TEST_P(ReachEquivalence, MatchesPerSourceBfs) {
  const auto p = GetParam();
  ReachFixture f(p.vertices, p.rhizomes, p.edge_capacity);
  rt::Xoshiro256 rng(p.seed);

  std::vector<std::uint64_t> sources;
  for (std::uint32_t s = 0; s < p.sources; ++s) {
    sources.push_back(rng.below(p.vertices));
    f.reach->add_source(*f.g, sources.back(), s);
  }
  std::vector<StreamEdge> edges;
  for (std::uint64_t i = 0; i < p.edges; ++i) {
    edges.push_back({rng.below(p.vertices), rng.below(p.vertices), 1});
  }
  f.g->stream_increment(edges);

  const auto ref = test::ref_graph_of(p.vertices, edges);
  for (std::uint32_t s = 0; s < p.sources; ++s) {
    const auto levels = base::bfs_levels(ref, sources[s]);
    for (std::uint64_t v = 0; v < p.vertices; ++v) {
      ASSERT_EQ(f.reach->reached(*f.g, v, s), levels[v] != base::kUnreached)
          << "vertex " << v << " source " << s << " seed " << p.seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReachEquivalence,
    ::testing::Values(ReachCase{32, 120, 8, 1, 4, 1},
                      ReachCase{64, 300, 64, 1, 8, 2},
                      ReachCase{64, 300, 200, 1, 4, 3},
                      ReachCase{32, 150, 16, 2, 4, 4},
                      ReachCase{48, 200, 32, 3, 2, 5},
                      ReachCase{16, 60, 256, 1, 1, 6}));

}  // namespace
}  // namespace ccastream::apps
