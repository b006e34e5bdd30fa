// Baseline oracles: known-answer tests plus the incremental-equals-
// recompute property of DynamicBfs.
#include <gtest/gtest.h>

#include <vector>

#include "test_util.hpp"

namespace ccastream::base {
namespace {

RefGraph path4() {
  RefGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  return g;
}

TEST(RefBfs, Path) {
  const auto l = bfs_levels(path4(), 0);
  EXPECT_EQ(l, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(RefBfs, UnreachableAndDirectionality) {
  const auto l = bfs_levels(path4(), 2);
  EXPECT_EQ(l[0], kUnreached);
  EXPECT_EQ(l[1], kUnreached);
  EXPECT_EQ(l[2], 0u);
  EXPECT_EQ(l[3], 1u);
}

TEST(RefSssp, PrefersLightPath) {
  RefGraph g(3);
  g.add_edge(0, 2, 10);
  g.add_edge(0, 1, 2);
  g.add_edge(1, 2, 3);
  const auto d = sssp_distances(g, 0);
  EXPECT_EQ(d[2], 5u);
}

TEST(RefComponents, MinLabels) {
  RefGraph g(6);
  g.add_edge(1, 5);
  g.add_edge(5, 3);
  g.add_edge(2, 4);
  const auto l = component_min_labels(g);
  EXPECT_EQ(l, (std::vector<std::uint64_t>{0, 1, 2, 1, 2, 1}));
}

TEST(RefTriangles, K4) {
  RefGraph g(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    for (std::uint64_t j = 0; j < 4; ++j) {
      if (i != j) g.add_edge(i, j);
    }
  }
  EXPECT_EQ(closed_wedges(g), 12u);  // 3 * 4 triangles
}

TEST(RefJaccard, KnownValue) {
  RefGraph g(6);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(4, 2);
  g.add_edge(4, 3);
  g.add_edge(4, 5);
  EXPECT_DOUBLE_EQ(jaccard(g, 0, 4), 0.5);
  EXPECT_DOUBLE_EQ(jaccard(g, 1, 5), 0.0);
}

TEST(RefPageRank, SumsToVertexCountOnCycle) {
  RefGraph g(4);
  for (std::uint64_t v = 0; v < 4; ++v) g.add_edge(v, (v + 1) % 4);
  const auto pr = pagerank(g, 0.85, 1e-12);
  double sum = 0;
  for (const double r : pr) sum += r;
  EXPECT_NEAR(sum, 4.0, 1e-6);
  for (const double r : pr) EXPECT_NEAR(r, 1.0, 1e-6);
}

TEST(DynamicBfs, InsertionRepairsLevels) {
  DynamicBfs d(5, 0);
  d.insert_edge(0, 1);
  d.insert_edge(1, 2);
  EXPECT_EQ(d.level_of(2), 2u);
  d.insert_edge(0, 2);  // shortcut
  EXPECT_EQ(d.level_of(2), 1u);
  EXPECT_EQ(d.level_of(3), kUnreached);
}

TEST(DynamicBfs, EdgeIntoSourceDoesNothing) {
  DynamicBfs d(3, 0);
  d.insert_edge(1, 0);
  EXPECT_EQ(d.level_of(0), 0u);
  EXPECT_EQ(d.level_of(1), kUnreached);
}

TEST(DynamicBfs, OutOfRangeEndpointsAreRejectedNotUndefined) {
  // Regression: insert_edge/flood_from used to index level_ with whatever
  // ids the caller supplied — an out-of-range id was a heap overrun. They
  // now reject and count.
  DynamicBfs d(5, 0);
  d.insert_edge(0, 1);
  ASSERT_EQ(d.level_of(1), 1u);

  d.insert_edge(5, 1);      // src one past the end
  d.insert_edge(1, 1'000'000);  // dst far out
  d.delete_edge(7, 0);
  EXPECT_EQ(d.edges_rejected(), 3u);
  // State is untouched by rejected ops.
  EXPECT_EQ(d.level_of(0), 0u);
  EXPECT_EQ(d.level_of(1), 1u);
  EXPECT_EQ(d.levels(), d.recompute());

  // The batch form skips bad ops and applies the rest.
  d.apply_increment(std::vector<StreamEdge>{{1, 99, 1}, {1, 2, 1}});
  EXPECT_EQ(d.edges_rejected(), 4u);
  EXPECT_EQ(d.level_of(2), 2u);
}

TEST(DynamicBfs, ResettledCountsActualLevelChangesOnly) {
  // Regression: flood_from used to bump the counter on every queue pop, so
  // vertices_resettled over-reported by every non-improving visit. It now
  // counts exactly the level assignments.
  DynamicBfs d(5, 0);
  d.insert_edge(0, 1);  // settles 1
  d.insert_edge(1, 2);  // settles 2
  EXPECT_EQ(d.vertices_resettled(), 2u);

  d.insert_edge(0, 1);  // duplicate: no level changes anywhere
  d.insert_edge(2, 1);  // back edge: 1 is already better
  EXPECT_EQ(d.vertices_resettled(), 2u);

  d.insert_edge(0, 2);  // shortcut: exactly vertex 2 improves (2 -> 1)
  EXPECT_EQ(d.vertices_resettled(), 3u);
}

TEST(DynamicBfs, DeleteEdgeRemovesAllCopiesAndRepairs) {
  DynamicBfs d(5, 0);
  d.insert_edge(0, 1);
  d.insert_edge(0, 1);  // parallel record
  d.insert_edge(1, 2);
  d.insert_edge(0, 3);
  d.insert_edge(3, 2);
  ASSERT_EQ(d.level_of(2), 2u);

  d.delete_edge(0, 1);  // both copies fall
  EXPECT_EQ(d.edges_deleted(), 2u);
  EXPECT_GT(d.vertices_invalidated(), 0u);
  EXPECT_EQ(d.level_of(1), kUnreached);
  EXPECT_EQ(d.level_of(2), 2u);  // re-settled through 3
  EXPECT_EQ(d.levels(), d.recompute());
}

TEST(DynamicBfs, DeletingTheOnlyPathUnreachesTheSubtree) {
  DynamicBfs d(4, 0);
  d.insert_edge(0, 1);
  d.insert_edge(1, 2);
  d.insert_edge(2, 3);
  d.delete_edge(0, 1);
  EXPECT_EQ(d.level_of(0), 0u);
  for (std::uint64_t v = 1; v < 4; ++v) EXPECT_EQ(d.level_of(v), kUnreached);
  EXPECT_EQ(d.levels(), d.recompute());
}

TEST(DynamicBfs, NonTreeEdgeDeletionLeavesLevelsAlone) {
  // (2, 1) goes "backwards" (level 2 -> level 1), so no shortest path uses
  // it; deleting it must not invalidate anything.
  DynamicBfs d(3, 0);
  d.insert_edge(0, 1);
  d.insert_edge(1, 2);
  d.insert_edge(2, 1);
  const auto before = d.levels();
  d.delete_edge(2, 1);
  EXPECT_EQ(d.vertices_invalidated(), 0u);
  EXPECT_EQ(d.levels(), before);
}

TEST(DynamicSssp, ZeroWeightCycleThroughTheSourceKeepsItSettled) {
  // Regression: the source sits at distance 0, so a zero-weight arc from
  // another distance-0 vertex looked like it carried the source's value.
  // Deleting it invalidated the source itself, and nothing could re-settle
  // it. The source holds its reset value, so no arc carries it.
  DynamicSssp d(2, 0);
  d.insert_edge(0, 1, 0);
  d.insert_edge(1, 0, 0);
  d.delete_edge(1, 0);
  EXPECT_EQ(d.vertices_invalidated(), 0u);
  EXPECT_EQ(d.distances(), (std::vector<std::uint64_t>{0, 0}));
  EXPECT_EQ(d.distances(), d.recompute());
}

class DynamicEqualsRecompute : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicEqualsRecompute, AfterEveryIncrement) {
  rt::Xoshiro256 rng(GetParam());
  const std::uint64_t n = 80;
  DynamicBfs d(n, 0);
  for (int inc = 0; inc < 8; ++inc) {
    std::vector<StreamEdge> edges;
    for (int i = 0; i < 40; ++i) edges.push_back({rng.below(n), rng.below(n), 1});
    d.apply_increment(edges);
    ASSERT_EQ(d.levels(), d.recompute()) << "increment " << inc;
  }
  EXPECT_GT(d.vertices_resettled(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicEqualsRecompute,
                         ::testing::Values(71, 72, 73, 74, 75));

// The same property with deletions in the mix: after every increment of
// randomly interleaved inserts and deletes, the incrementally maintained
// levels equal a from-scratch BFS of the surviving graph.
class DynamicDeletionsEqualRecompute
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicDeletionsEqualRecompute, AfterEveryIncrement) {
  rt::Xoshiro256 rng(GetParam());
  const std::uint64_t n = 60;
  DynamicBfs d(n, 0);
  std::vector<StreamEdge> live;
  for (int inc = 0; inc < 10; ++inc) {
    std::vector<StreamEdge> ops;
    for (int i = 0; i < 30; ++i) {
      if (!live.empty() && rng.below(3) == 0) {
        const auto& victim = live[rng.below(live.size())];
        ops.push_back(make_delete_edge(victim.src, victim.dst));
        std::erase_if(live, [&](const StreamEdge& e) {
          return e.src == victim.src && e.dst == victim.dst;
        });
      } else {
        const StreamEdge e{rng.below(n), rng.below(n), 1};
        ops.push_back(e);
        live.push_back(e);
      }
    }
    d.apply_increment(ops);
    ASSERT_EQ(d.levels(), d.recompute()) << "increment " << inc;
  }
  EXPECT_GT(d.edges_deleted(), 0u);
  EXPECT_GT(d.vertices_invalidated(), 0u);
}

// Seeds picked so every one produces both deletions and at least one
// invalidation cascade (84 deleted only non-tree edges and is skipped).
INSTANTIATE_TEST_SUITE_P(Seeds, DynamicDeletionsEqualRecompute,
                         ::testing::Values(81, 82, 83, 85, 86));

// The four counters of each dynamic oracle, plus a checksum of its values,
// on one seeded windowed schedule. The counters measure the repair's work,
// not its result, so a rewrite that visits vertices in another order (or
// invalidates more than it must) moves them even where the values still
// equal recompute(). An intended change re-pins from the failure message.
struct PinnedCounters {
  std::uint64_t resettled, invalidated, deleted, rejected, checksum;
};

template <typename Oracle, typename Values>
void expect_pinned(Oracle& d, const std::vector<std::vector<StreamEdge>>& incs,
                   Values values, const PinnedCounters& want) {
  for (std::size_t i = 0; i < incs.size(); ++i) {
    d.apply_increment(incs[i]);
    ASSERT_EQ(values(d), d.recompute()) << "increment " << i;
  }
  std::uint64_t checksum = 0;
  for (const std::uint64_t x : values(d)) checksum = checksum * 1'000'003 + x;
  EXPECT_EQ(d.vertices_resettled(), want.resettled);
  EXPECT_EQ(d.vertices_invalidated(), want.invalidated);
  EXPECT_EQ(d.edges_deleted(), want.deleted);
  EXPECT_EQ(d.edges_rejected(), want.rejected);
  EXPECT_EQ(checksum, want.checksum);
}

TEST(DynamicOracles, CountersArePinned) {
  constexpr std::uint64_t kVertices = 300;
  wl::StreamSchedule sched = wl::apply_sliding_window(
      wl::make_graphchallenge_like(kVertices, 3000, wl::SamplingKind::kEdge,
                                   10, 21),
      3);
  // Weights 1..7 drawn from the pair, so every observation of a pair
  // weighs the same (BFS and components ignore them).
  for (auto& inc : sched.increments) {
    for (auto& e : inc) {
      e.weight = 1 + static_cast<std::uint32_t>((e.src * 31 + e.dst * 17) % 7);
    }
  }
  sched.increments[sched.increments.size() / 2].push_back(
      make_insert_edge(kVertices, 0));

  DynamicBfs bfs(kVertices, 0);
  expect_pinned(bfs, sched.increments,
                [](const DynamicBfs& d) -> const auto& { return d.levels(); },
                {9023, 5019, 2092, 1, 7970055587193970023u});
  DynamicSssp sssp(kVertices, 0);
  expect_pinned(sssp, sched.increments,
                [](const DynamicSssp& d) -> const auto& { return d.distances(); },
                {10267, 4203, 2092, 1, 10667574692670405325u});
  DynamicComponents comps(kVertices);
  expect_pinned(comps, sched.increments,
                [](const DynamicComponents& d) -> const auto& { return d.labels(); },
                {830824, 389663, 2092, 1, 3433766460501174751u});
}

}  // namespace
}  // namespace ccastream::base
