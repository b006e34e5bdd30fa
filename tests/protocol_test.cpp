// Unit + property tests: the insert-edge / ghost-allocation protocol
// building the RPVO structure (paper Listings 4 & 6, Figures 1, 3, 4).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "test_util.hpp"

namespace ccastream::graph {
namespace {

using rt::GlobalAddress;
using test::small_chip_config;

struct Fixture {
  explicit Fixture(std::uint32_t edge_capacity = 4, std::uint64_t nverts = 8,
                   sim::ChipConfig cfg = small_chip_config()) {
    chip = std::make_unique<sim::Chip>(cfg);
    RpvoConfig rc;
    rc.edge_capacity = edge_capacity;
    proto = std::make_unique<GraphProtocol>(*chip, rc);
    GraphConfig gc;
    gc.num_vertices = nverts;
    g = std::make_unique<StreamingGraph>(*proto, gc);
  }
  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<GraphProtocol> proto;
  std::unique_ptr<StreamingGraph> g;
};

TEST(Protocol, SingleEdgeInsert) {
  Fixture f;
  f.g->stream_increment(std::vector<StreamEdge>{{0, 1, 5}});
  EXPECT_EQ(f.g->stored_degree(0), 1u);
  EXPECT_EQ(f.g->stored_degree(1), 0u);
  const auto nbrs = f.g->neighbors(0);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0].first, 1u);
  EXPECT_EQ(nbrs[0].second, 5u);
  EXPECT_EQ(f.proto->stats().edges_inserted, 1u);
  EXPECT_EQ(f.proto->stats().ghost_allocs_started, 0u);
}

TEST(Protocol, FillWithinCapacityNeedsNoGhost) {
  Fixture f(/*edge_capacity=*/4);
  std::vector<StreamEdge> edges;
  for (std::uint64_t i = 0; i < 4; ++i) edges.push_back({0, 1 + i, 1});
  f.g->stream_increment(edges);
  EXPECT_EQ(f.g->stored_degree(0), 4u);
  EXPECT_EQ(f.g->fragments_of(0).size(), 1u);  // root only
  EXPECT_EQ(f.proto->stats().ghost_allocs_started, 0u);
}

TEST(Protocol, OverflowAllocatesGhostChain) {
  Fixture f(/*edge_capacity=*/4);
  std::vector<StreamEdge> edges;
  for (std::uint64_t i = 0; i < 10; ++i) edges.push_back({0, (1 + i) % 8, 1});
  f.g->stream_increment(edges);
  EXPECT_EQ(f.g->stored_degree(0), 10u);
  // 10 edges at capacity 4: root + at least 2 ghosts.
  EXPECT_GE(f.g->fragments_of(0).size(), 3u);
  EXPECT_GE(f.proto->stats().ghost_links_made, 2u);
  EXPECT_EQ(f.proto->stats().ghost_alloc_failures, 0u);
}

TEST(Protocol, GhostLearnsIdentity) {
  Fixture f(/*edge_capacity=*/2);
  std::vector<StreamEdge> edges;
  for (std::uint64_t i = 0; i < 5; ++i) edges.push_back({3, (i + 4) % 8, 1});
  f.g->stream_increment(edges);
  const auto frags = f.g->fragments_of(3);
  ASSERT_GE(frags.size(), 2u);
  for (const auto addr : frags) {
    const auto* frag = f.chip->as<VertexFragment>(addr);
    EXPECT_EQ(frag->vid, 3u);
    EXPECT_EQ(frag->root, frags[0]);
  }
  const auto* root = f.chip->as<VertexFragment>(frags[0]);
  EXPECT_TRUE(root->is_root);
  EXPECT_EQ(root->inserts_seen, 5u);  // every insert passes the root
}

TEST(Protocol, VicinityGhostsStayClose) {
  auto cfg = small_chip_config();
  cfg.alloc_policy = rt::AllocPolicyKind::kVicinity;
  cfg.vicinity_radius = 2;
  Fixture f(2, 8, cfg);
  std::vector<StreamEdge> edges;
  for (std::uint64_t i = 0; i < 12; ++i) edges.push_back({0, 1 + (i % 7), 1});
  f.g->stream_increment(edges);
  const auto frags = f.g->fragments_of(0);
  ASSERT_GE(frags.size(), 2u);
  // Every ghost is within 2 hops of the fragment that allocated it, hence
  // within 2 * (chain position) of the root.
  for (std::size_t i = 1; i < frags.size(); ++i) {
    EXPECT_LE(f.chip->geometry().hops(frags[i - 1].cc, frags[i].cc), 2u);
  }
}

// Property: edge conservation. Whatever the stream, capacity, fan-out and
// allocation policy, every streamed edge is stored exactly once across the
// destination vertex's fragments.
struct ConservationCase {
  std::uint32_t edge_capacity;
  std::uint32_t ghost_fanout;
  rt::AllocPolicyKind policy;
  std::uint64_t seed;
};

class EdgeConservation : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(EdgeConservation, EveryEdgeStoredExactlyOnce) {
  const auto p = GetParam();
  auto cfg = small_chip_config();
  cfg.alloc_policy = p.policy;
  cfg.seed = p.seed;

  auto chip = std::make_unique<sim::Chip>(cfg);
  RpvoConfig rc;
  rc.edge_capacity = p.edge_capacity;
  rc.ghost_fanout = p.ghost_fanout;
  GraphProtocol proto(*chip, rc);
  GraphConfig gc;
  gc.num_vertices = 32;
  StreamingGraph g(proto, gc);

  rt::Xoshiro256 rng(p.seed);
  std::vector<StreamEdge> edges;
  std::vector<std::uint64_t> expected_degree(32, 0);
  for (int i = 0; i < 600; ++i) {
    const StreamEdge e{rng.below(32), rng.below(32), 1};
    edges.push_back(e);
    ++expected_degree[e.src];
  }
  g.stream_increment(edges);

  ASSERT_TRUE(chip->quiescent());
  EXPECT_EQ(proto.stats().edges_inserted, 600u);
  EXPECT_EQ(proto.stats().ghost_alloc_failures, 0u);
  EXPECT_EQ(proto.stats().bad_targets, 0u);
  for (std::uint64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(g.stored_degree(v), expected_degree[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EdgeConservation,
    ::testing::Values(
        ConservationCase{1, 1, rt::AllocPolicyKind::kVicinity, 11},
        ConservationCase{2, 1, rt::AllocPolicyKind::kVicinity, 12},
        ConservationCase{4, 1, rt::AllocPolicyKind::kRandom, 13},
        ConservationCase{4, 2, rt::AllocPolicyKind::kVicinity, 14},
        ConservationCase{8, 3, rt::AllocPolicyKind::kRandom, 15},
        ConservationCase{16, 1, rt::AllocPolicyKind::kRoundRobin, 16},
        ConservationCase{2, 2, rt::AllocPolicyKind::kLocal, 17},
        ConservationCase{3, 1, rt::AllocPolicyKind::kRandom, 18}));

TEST(Protocol, DeferredInsertsDrainThroughFuture) {
  // Capacity 1 and a burst at one vertex forces the pending-future path:
  // many inserts arrive while the first ghost allocation is in flight.
  Fixture f(/*edge_capacity=*/1);
  std::vector<StreamEdge> edges;
  for (std::uint64_t i = 0; i < 16; ++i) edges.push_back({0, 1 + (i % 7), 1});
  f.g->stream_increment(edges);
  EXPECT_EQ(f.g->stored_degree(0), 16u);
  EXPECT_GT(f.proto->stats().inserts_deferred, 0u);
  EXPECT_GT(f.chip->stats().tasks_scheduled, 0u);
  EXPECT_EQ(f.g->fragments_of(0).size(), 16u);  // capacity-1 chain
}

TEST(Protocol, ArenaExhaustionSurfacesAllocFailures) {
  auto cfg = small_chip_config(2);      // 4 cells
  cfg.cc_memory_bytes = 600;            // a handful of fragments per cell
  cfg.alloc_forward_budget = 3;
  Fixture f(/*edge_capacity=*/1, /*nverts=*/4, cfg);
  std::vector<StreamEdge> edges;
  for (std::uint64_t i = 0; i < 200; ++i) edges.push_back({0, 1 + (i % 3), 1});
  f.g->stream_increment(edges, /*max_cycles=*/200000);
  // The chip must reach quiescence (failures must not wedge the system)...
  EXPECT_TRUE(f.chip->quiescent());
  // ...and the failure is observable, with some edges never stored.
  EXPECT_GT(f.chip->stats().alloc_failures, 0u);
  EXPECT_LT(f.g->stored_degree(0), 200u);
}

TEST(Protocol, SelfEdgesAndDuplicatesAreStored) {
  Fixture f;
  f.g->stream_increment(
      std::vector<StreamEdge>{{2, 2, 1}, {2, 5, 1}, {2, 5, 1}, {2, 5, 2}});
  EXPECT_EQ(f.g->stored_degree(2), 4u);  // multigraph semantics
}

TEST(Protocol, PlacementPoliciesCoverAllCells) {
  for (const auto placement :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kBlocked,
        PlacementPolicy::kRandom}) {
    auto cfg = small_chip_config(4);
    sim::Chip chip(cfg);
    GraphProtocol proto(chip);
    GraphConfig gc;
    gc.num_vertices = 64;
    gc.placement = placement;
    StreamingGraph g(proto, gc);
    std::set<std::uint32_t> cells;
    for (std::uint64_t v = 0; v < 64; ++v) cells.insert(g.root_of(v).cc);
    if (placement == PlacementPolicy::kRandom) {
      EXPECT_GE(cells.size(), 8u);  // probabilistic, loose bound
    } else {
      EXPECT_EQ(cells.size(), 16u);
    }
  }
}

TEST(Protocol, IncrementReportsAddUp) {
  Fixture f;
  std::vector<StreamEdge> inc1{{0, 1, 1}, {1, 2, 1}};
  std::vector<StreamEdge> inc2{{2, 3, 1}, {3, 4, 1}, {4, 5, 1}};
  const auto r1 = f.g->stream_increment(inc1);
  const auto r2 = f.g->stream_increment(inc2);
  EXPECT_EQ(r1.edges, 2u);
  EXPECT_EQ(r2.edges, 3u);
  EXPECT_GT(r1.cycles, 0u);
  EXPECT_GT(r2.cycles, 0u);
  EXPECT_EQ(r1.cycles + r2.cycles, f.chip->stats().cycles);
  EXPECT_GT(r1.energy_uj, 0.0);
}

}  // namespace
}  // namespace ccastream::graph
