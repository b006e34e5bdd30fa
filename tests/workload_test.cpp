// Workload generators: SBM, R-MAT, Edge/Snowball sampling schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

#include "test_util.hpp"

namespace ccastream::wl {
namespace {

std::multiset<std::pair<std::uint64_t, std::uint64_t>> edge_multiset(
    const std::vector<StreamEdge>& edges) {
  std::multiset<std::pair<std::uint64_t, std::uint64_t>> s;
  for (const auto& e : edges) s.insert({e.src, e.dst});
  return s;
}

TEST(Sbm, GeneratesRequestedCount) {
  SbmParams p;
  p.num_vertices = 100;
  p.num_edges = 500;
  const auto edges = generate_sbm(p);
  EXPECT_EQ(edges.size(), 500u);
  for (const auto& e : edges) {
    EXPECT_LT(e.src, 100u);
    EXPECT_LT(e.dst, 100u);
    EXPECT_NE(e.src, e.dst);  // self loops off by default
  }
}

TEST(Sbm, Deterministic) {
  SbmParams p;
  p.num_vertices = 50;
  p.num_edges = 200;
  p.seed = 9;
  EXPECT_EQ(edge_multiset(generate_sbm(p)), edge_multiset(generate_sbm(p)));
  p.seed = 10;
  EXPECT_NE(edge_multiset(generate_sbm(p)),
            edge_multiset(generate_sbm({50, 200, 32, 0.7, 1.0, false, 9})));
}

TEST(Sbm, IntraBlockBias) {
  SbmParams p;
  p.num_vertices = 1000;
  p.num_edges = 20000;
  p.num_blocks = 10;
  p.intra_prob = 0.9;
  const auto edges = generate_sbm(p);
  std::uint64_t intra = 0;
  for (const auto& e : edges) {
    if (e.src / 100 == e.dst / 100) ++intra;
  }
  // 90% intra + ~1% of inter landing in-block by chance.
  EXPECT_GT(static_cast<double>(intra) / edges.size(), 0.85);
}

TEST(Sbm, SelfLoopsWhenAllowed) {
  SbmParams p;
  p.num_vertices = 10;
  p.num_edges = 3000;
  p.allow_self_loops = true;
  const auto edges = generate_sbm(p);
  EXPECT_TRUE(std::any_of(edges.begin(), edges.end(),
                          [](const StreamEdge& e) { return e.src == e.dst; }));
}

// A graph the generator cannot draw is an error, not a hang or a crash:
// zero vertices leave no block to draw from, and one vertex without
// self-loops has no edge at all.
TEST(Sbm, RejectsGraphsItCannotDraw) {
  SbmParams p;
  p.num_vertices = 0;
  p.num_edges = 10;
  EXPECT_THROW(static_cast<void>(generate_sbm(p)), std::invalid_argument);
  p.num_edges = 0;
  EXPECT_THROW(static_cast<void>(generate_sbm(p)), std::invalid_argument);

  p.num_vertices = 1;
  p.num_edges = 500;
  EXPECT_THROW(static_cast<void>(generate_sbm(p)), std::invalid_argument);
  p.allow_self_loops = true;
  const auto loops = generate_sbm(p);
  ASSERT_EQ(loops.size(), 500u);
  for (const auto& e : loops) EXPECT_EQ(e.src, e.dst);
}

TEST(EdgeSampling, PartitionsEvenly) {
  SbmParams p;
  p.num_vertices = 64;
  p.num_edges = 1003;
  auto edges = generate_sbm(p);
  const auto before = edge_multiset(edges);
  const auto sched = edge_sampling(std::move(edges), 10, 1);

  ASSERT_EQ(sched.increments.size(), 10u);
  EXPECT_EQ(sched.total_edges(), 1003u);
  // Near-equal: paper Table 1's Edge rows are all ~102K.
  for (const auto& inc : sched.increments) {
    EXPECT_GE(inc.size(), 100u);
    EXPECT_LE(inc.size(), 101u);
  }
  // Permutation: nothing lost, nothing invented.
  std::vector<StreamEdge> flat;
  for (const auto& inc : sched.increments) {
    flat.insert(flat.end(), inc.begin(), inc.end());
  }
  EXPECT_EQ(edge_multiset(flat), before);
}

TEST(SnowballSampling, RampsUpAndPreservesEdges) {
  SbmParams p;
  p.num_vertices = 200;
  p.num_edges = 3000;
  const auto edges = generate_sbm(p);
  const auto sched = snowball_sampling(edges, 200, 10, 2);

  ASSERT_EQ(sched.increments.size(), 10u);
  EXPECT_EQ(sched.total_edges(), 3000u);
  EXPECT_LT(sched.seed_vertex, 200u);
  // Table 1 snowball shape: later increments are much larger than earlier.
  EXPECT_LT(sched.increments.front().size() * 3, sched.increments.back().size());
  // Monotone non-decreasing ramp.
  for (std::size_t i = 1; i < 10; ++i) {
    EXPECT_GE(sched.increments[i].size() + 1, sched.increments[i - 1].size());
  }
  std::vector<StreamEdge> flat;
  for (const auto& inc : sched.increments) {
    flat.insert(flat.end(), inc.begin(), inc.end());
  }
  EXPECT_EQ(edge_multiset(flat), edge_multiset(edges));
}

TEST(SnowballSampling, EarlyEdgesTouchSeedNeighborhood) {
  SbmParams p;
  p.num_vertices = 300;
  p.num_edges = 4000;
  const auto edges = generate_sbm(p);
  const auto sched = snowball_sampling(edges, 300, 10, 3);
  // The first increment's edges are discovered from the seed: the seed (or
  // a vertex reached from it) appears among the earliest endpoints.
  ASSERT_FALSE(sched.increments.front().empty());
  const auto& first = sched.increments.front().front();
  EXPECT_TRUE(first.src == sched.seed_vertex || first.dst == sched.seed_vertex);
}

TEST(GraphChallengeLike, BothKindsProduceFullSchedules) {
  for (const auto kind : {SamplingKind::kEdge, SamplingKind::kSnowball}) {
    const auto sched = make_graphchallenge_like(500, 5000, kind, 10, 4);
    EXPECT_EQ(sched.kind, kind);
    EXPECT_EQ(sched.increments.size(), 10u);
    EXPECT_EQ(sched.total_edges(), 5000u);
  }
}

TEST(Symmetrize, AddsReverses) {
  const auto sym = symmetrize({{0, 1, 3}, {2, 2, 1}});
  ASSERT_EQ(sym.size(), 3u);  // self loop not doubled
  EXPECT_EQ(sym[1].src, 1u);
  EXPECT_EQ(sym[1].dst, 0u);
  EXPECT_EQ(sym[1].weight, 3u);
}

TEST(Simplify, DropsDupsAndSelfLoops) {
  const auto simple =
      simplify({{0, 1, 1}, {0, 1, 9}, {1, 0, 1}, {2, 2, 1}, {0, 2, 1}});
  ASSERT_EQ(simple.size(), 3u);  // (0,1), (1,0), (0,2)
}

TEST(Simplify, DuplicatePairKeepsLastWeightAtFirstPosition) {
  // The project-wide last-write rule (graph/stream_edge.hpp): a duplicate
  // observation renews the pair with its weight, matching what a chip
  // stream of delete+insert would leave behind. Position stays stable so
  // schedules remain deterministic.
  const auto simple = simplify({{0, 1, 1}, {0, 2, 4}, {0, 1, 9}});
  ASSERT_EQ(simple.size(), 2u);
  EXPECT_EQ(simple[0], (StreamEdge{0, 1, 9}));
  EXPECT_EQ(simple[1], (StreamEdge{0, 2, 4}));
}

TEST(UndirectedSimple, DedupsUnorderedPairs) {
  const auto out = undirected_simple(
      {{0, 1, 1}, {1, 0, 5}, {2, 2, 1}, {3, 1, 1}, {0, 1, 9}});
  // Pairs {0,1} and {1,3} survive, each emitted in both directions; the
  // last observation of {0,1} (weight 9) wins, at the pair's first
  // position — the same last-write rule simplify applies.
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], (StreamEdge{0, 1, 9}));
  EXPECT_EQ(out[1], (StreamEdge{1, 0, 9}));
  EXPECT_EQ(out[2], (StreamEdge{1, 3, 1}));
  EXPECT_EQ(out[3], (StreamEdge{3, 1, 1}));
}

TEST(SlidingWindow, ExpiresPairsExactlyWindowIncrementsAfterLastSeen) {
  StreamSchedule arrivals;
  arrivals.increments = {{{0, 1, 1}}, {{1, 2, 1}}, {}, {}};
  const auto out = apply_sliding_window(arrivals, /*window=*/2);
  ASSERT_EQ(out.increments.size(), 4u);
  // Increment 2: (0,1) from increment 0 ages out, ahead of any arrivals.
  ASSERT_EQ(out.increments[2].size(), 1u);
  EXPECT_TRUE(out.increments[2][0].is_delete());
  EXPECT_EQ(out.increments[2][0].src, 0u);
  EXPECT_EQ(out.increments[2][0].dst, 1u);
  // Increment 3: (1,2) follows.
  ASSERT_EQ(out.increments[3].size(), 1u);
  EXPECT_EQ(out.increments[3][0].src, 1u);
}

TEST(SlidingWindow, ReobservationRenewsTheLease) {
  StreamSchedule arrivals;
  arrivals.increments = {{{0, 1, 1}}, {{0, 1, 2}}, {}, {}, {}};
  const auto out = apply_sliding_window(arrivals, /*window=*/2);
  // The increment-1 re-observation renews (0, 1): nothing expires at
  // increment 2; the single delete lands at increment 3.
  EXPECT_TRUE(out.increments[2].empty());
  ASSERT_EQ(out.increments[3].size(), 1u);
  EXPECT_TRUE(out.increments[3][0].is_delete());
  EXPECT_TRUE(out.increments[4].empty());
  std::uint64_t deletes = 0;
  for (const auto& inc : out.increments) {
    for (const auto& e : inc) deletes += e.is_delete() ? 1 : 0;
  }
  EXPECT_EQ(deletes, 1u);  // one lease, one expiry, despite two arrivals
}

TEST(SlidingWindow, DrainAppendsWindowIncrementsAndEmptiesTheGraph) {
  SbmParams p;
  p.num_vertices = 40;
  p.num_edges = 200;
  const auto sched = edge_sampling(generate_sbm(p), 5, 1);
  const auto windowed = apply_sliding_window(sched, /*window=*/2,
                                             /*drain=*/true);
  EXPECT_EQ(windowed.increments.size(), 7u);  // 5 arrivals + window tail
  EXPECT_TRUE(live_edges(windowed).empty());
  // Without drain the last window's pairs are still live.
  const auto open = apply_sliding_window(sched, /*window=*/2);
  EXPECT_EQ(open.increments.size(), 5u);
  EXPECT_FALSE(live_edges(open).empty());
  // Every insert of the original schedule appears in the windowed one.
  EXPECT_EQ(windowed.kind, sched.kind);
  std::uint64_t inserts = 0;
  for (const auto& inc : windowed.increments) {
    for (const auto& e : inc) inserts += e.is_delete() ? 0 : 1;
  }
  EXPECT_EQ(inserts, sched.total_edges());
}

TEST(SlidingWindow, WindowZeroIsPassThrough) {
  StreamSchedule arrivals;
  arrivals.increments = {{{0, 1, 1}}, {{1, 2, 1}}};
  const auto out = apply_sliding_window(arrivals, 0);
  EXPECT_EQ(out.increments.size(), 2u);
  for (const auto& inc : out.increments) {
    for (const auto& e : inc) EXPECT_FALSE(e.is_delete());
  }
}

TEST(SlidingWindow, LiveEdgesHonorsDeleteAllThenReinsert) {
  StreamSchedule s;
  s.increments = {{{0, 1, 1}, {0, 1, 2}},
                  {make_delete_edge(0, 1), make_insert_edge(0, 1, 7)}};
  const auto live = live_edges(s);
  // Deletes apply before the increment's inserts (the chip's sub-phase
  // order), and remove every matching pair: both weight-1 and weight-2
  // records fall, the re-insert survives.
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].weight, 7u);
}

TEST(ResolveWindow, ExplicitRequestWinsOverEnvironment) {
  const test::ScopedEnv env("CCASTREAM_WINDOW", "5");
  EXPECT_EQ(resolve_window(3), 3u);
  EXPECT_EQ(resolve_window(0), 5u);
}

TEST(ResolveWindow, RejectsMalformedEnvValues) {
  for (const char* bad : {"0", "-3", "2x", "", "1000001"}) {
    const test::ScopedEnv env("CCASTREAM_WINDOW", bad);
    EXPECT_EQ(resolve_window(0), 0u) << "value '" << bad << "'";
  }
  const test::ScopedEnv unset("CCASTREAM_WINDOW", nullptr);
  EXPECT_EQ(resolve_window(0), 0u);
}

TEST(Rmat, GeneratesSkewedGraph) {
  RmatParams p;
  p.scale = 8;   // 256 vertices
  p.num_edges = 4096;
  const auto edges = generate_rmat(p);
  EXPECT_EQ(edges.size(), 4096u);
  std::map<std::uint64_t, std::uint64_t> degree;
  for (const auto& e : edges) {
    EXPECT_LT(e.src, 256u);
    EXPECT_LT(e.dst, 256u);
    EXPECT_NE(e.src, e.dst);
    ++degree[e.src];
  }
  // Skew: the hottest vertex should far exceed the mean degree (16).
  std::uint64_t dmax = 0;
  for (const auto& [v, d] : degree) dmax = std::max(dmax, d);
  EXPECT_GT(dmax, 48u);
}

TEST(Rmat, DefaultEdgeCountIsGraph500Density) {
  RmatParams p;
  p.scale = 6;
  const auto edges = generate_rmat(p);
  EXPECT_EQ(edges.size(), 16u * 64u);
}

}  // namespace
}  // namespace ccastream::wl
