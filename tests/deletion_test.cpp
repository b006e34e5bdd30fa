// Edge deletion, end to end: the delete-edge protocol on RPVO chains
// (delete-all-matches, ghost forwarding, deferred parking), the ingest
// hardening around it (endpoint validation, the rhizome restriction), the
// four-phase deletion increment driving the monotone-raise repair
// framework for BFS/SSSP/components (invalidation + re-settlement pinned
// against the dynamic oracles), the fail-loud contract for apps without a
// deletion story (PageRank, triangles, hook-chaining apps), and the v2
// snapshot format that persists the deletes_seen counter.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "test_util.hpp"

namespace ccastream::graph {
namespace {

using test::small_chip_config;

struct Fixture {
  explicit Fixture(std::uint32_t edge_capacity = 4, std::uint64_t nverts = 8,
                   sim::ChipConfig cfg = small_chip_config(),
                   std::uint32_t rhizomes = 1) {
    chip = std::make_unique<sim::Chip>(cfg);
    RpvoConfig rc;
    rc.edge_capacity = edge_capacity;
    proto = std::make_unique<GraphProtocol>(*chip, rc);
    GraphConfig gc;
    gc.num_vertices = nverts;
    gc.rhizomes = rhizomes;
    g = std::make_unique<StreamingGraph>(*proto, gc);
  }
  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<GraphProtocol> proto;
  std::unique_ptr<StreamingGraph> g;
};

TEST(Deletion, RemovesStoredRecord) {
  Fixture f;
  f.g->stream_increment(std::vector<StreamEdge>{{0, 1, 5}, {0, 2, 7}});
  ASSERT_EQ(f.g->stored_degree(0), 2u);

  const auto r = f.g->stream_increment(
      std::vector<StreamEdge>{make_delete_edge(0, 1)});
  EXPECT_EQ(r.edges, 1u);
  EXPECT_EQ(r.deletes, 1u);
  EXPECT_EQ(f.g->stored_degree(0), 1u);
  const auto nbrs = f.g->neighbors(0);
  ASSERT_EQ(nbrs.size(), 1u);
  EXPECT_EQ(nbrs[0].first, 2u);
  EXPECT_EQ(f.proto->stats().edges_deleted, 1u);
  EXPECT_EQ(f.proto->stats().deletes_unmatched, 0u);

  // The root observed one delete, mirroring inserts_seen.
  const auto* root = f.chip->as<VertexFragment>(f.g->root_of(0));
  EXPECT_EQ(root->inserts_seen, 2u);
  EXPECT_EQ(root->deletes_seen, 1u);
}

TEST(Deletion, RemovesEveryMatchingRecord) {
  // Multigraph semantics on the way in, delete-all-matches on the way out
  // (see graph/stream_edge.hpp): one delete op clears all three (2, 5)
  // records and leaves the self-edge alone.
  Fixture f;
  f.g->stream_increment(
      std::vector<StreamEdge>{{2, 5, 1}, {2, 5, 2}, {2, 2, 1}, {2, 5, 3}});
  ASSERT_EQ(f.g->stored_degree(2), 4u);
  f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(2, 5)});
  EXPECT_EQ(f.g->stored_degree(2), 1u);
  EXPECT_EQ(f.g->neighbors(2)[0].first, 2u);
  EXPECT_EQ(f.proto->stats().edges_deleted, 3u);
}

TEST(Deletion, ForwardsDownGhostChains) {
  // Capacity-1 fragments scatter the duplicates across a long chain; the
  // delete must walk every link and clear them all.
  Fixture f(/*edge_capacity=*/1);
  std::vector<StreamEdge> edges;
  for (std::uint64_t i = 0; i < 10; ++i) edges.push_back({0, 1 + (i % 2), 1});
  f.g->stream_increment(edges);
  ASSERT_EQ(f.g->stored_degree(0), 10u);
  ASSERT_GE(f.g->fragments_of(0).size(), 10u);

  f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(0, 1)});
  EXPECT_EQ(f.g->stored_degree(0), 5u);  // only the (0, 2) records remain
  for (const auto& [dst, w] : f.g->neighbors(0)) EXPECT_EQ(dst, 2u);
  EXPECT_EQ(f.proto->stats().edges_deleted, 5u);
  EXPECT_GT(f.proto->stats().deletes_forwarded, 0u);
}

TEST(Deletion, UnmatchedDeleteIsCountedNotFatal) {
  Fixture f;
  f.g->stream_increment(std::vector<StreamEdge>{{0, 1, 1}});
  f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(0, 7)});
  EXPECT_TRUE(f.chip->quiescent());
  EXPECT_EQ(f.g->stored_degree(0), 1u);
  EXPECT_EQ(f.proto->stats().edges_deleted, 0u);
  EXPECT_EQ(f.proto->stats().deletes_unmatched, 1u);
  EXPECT_EQ(f.proto->stats().bad_targets, 0u);
}

TEST(Deletion, StreamIncrementRejectsOutOfRangeEndpoints) {
  Fixture f(4, /*nverts=*/8);
  EXPECT_THROW(f.g->stream_increment(std::vector<StreamEdge>{{8, 0, 1}}),
               std::out_of_range);
  EXPECT_THROW(f.g->stream_increment(std::vector<StreamEdge>{{0, 99, 1}}),
               std::out_of_range);
  EXPECT_THROW(
      f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(0, 8)}),
      std::out_of_range);
  // Nothing was enqueued by the rejected batches.
  EXPECT_EQ(f.g->stored_degree(0), 0u);
  EXPECT_EQ(f.proto->stats().edges_inserted, 0u);
}

TEST(Deletion, DeletesRequireSingleRhizome) {
  // Streamed edges round-robin their destination address across rhizome
  // roots, so a delete aimed at one ring member cannot see records parked
  // on the others; the façade refuses rather than silently missing them.
  Fixture f(4, 8, small_chip_config(), /*rhizomes=*/2);
  f.g->stream_increment(std::vector<StreamEdge>{{0, 1, 1}});
  EXPECT_THROW(
      f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(0, 1)}),
      std::runtime_error);
}

TEST(Deletion, RhizomeConflictIsStructuredAndActionable) {
  // The precondition surfaces as the typed DeletionRhizomeError (still a
  // std::runtime_error for generic handlers), thrown before anything is
  // enqueued, with a message that names both knobs involved.
  Fixture f(4, 8, small_chip_config(), /*rhizomes=*/3);
  f.g->stream_increment(std::vector<StreamEdge>{{0, 1, 1}});
  const std::uint64_t inserted = f.proto->stats().edges_inserted;
  try {
    f.g->stream_increment(std::vector<StreamEdge>{
        make_insert_edge(1, 2), make_delete_edge(0, 1)});
    FAIL() << "deleting increment with rhizomes > 1 must throw";
  } catch (const DeletionRhizomeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rhizomes == 3"), std::string::npos) << what;
    EXPECT_NE(what.find("--window"), std::string::npos) << what;
    EXPECT_NE(what.find("--rhizomes 1"), std::string::npos) << what;
  }
  // Upfront validation: the batch's insert was not half-streamed.
  EXPECT_EQ(f.proto->stats().edges_inserted, inserted);
}

TEST(Deletion, SnapshotV2RoundTripsDeletesSeen) {
  const auto cfg = small_chip_config();
  Fixture f(4, 8, cfg);
  f.g->stream_increment(
      std::vector<StreamEdge>{{0, 1, 1}, {0, 2, 1}, {1, 2, 1}});
  f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(0, 1)});

  std::stringstream snap;
  f.g->save_snapshot(snap);
  EXPECT_NE(snap.str().find("ccastream-snapshot v2"), std::string::npos);

  Fixture fresh(4, 8, cfg);
  fresh.chip = std::make_unique<sim::Chip>(cfg);
  RpvoConfig rc;
  rc.edge_capacity = 4;
  fresh.proto = std::make_unique<GraphProtocol>(*fresh.chip, rc);
  auto restored = StreamingGraph::load_snapshot(*fresh.proto, snap);
  EXPECT_EQ(restored->stored_degree(0), 1u);
  const auto* root = fresh.chip->as<VertexFragment>(restored->root_of(0));
  EXPECT_EQ(root->deletes_seen, 1u);
  EXPECT_EQ(root->inserts_seen, 2u);
}

TEST(Deletion, LegacyV1SnapshotLoadsWithZeroDeletesSeen) {
  const auto cfg = small_chip_config();
  Fixture f(4, 8, cfg);
  f.g->stream_increment(std::vector<StreamEdge>{{0, 1, 1}, {1, 2, 1}});

  std::stringstream snap;
  f.g->save_snapshot(snap);

  Fixture fresh(4, 8, cfg);
  fresh.chip = std::make_unique<sim::Chip>(cfg);
  RpvoConfig rc;
  rc.edge_capacity = 4;
  fresh.proto = std::make_unique<GraphProtocol>(*fresh.chip, rc);
  std::istringstream in(test::to_v1_snapshot(snap.str()));
  auto restored = StreamingGraph::load_snapshot(*fresh.proto, in);
  EXPECT_EQ(restored->stored_degree(0), 1u);
  const auto* root = fresh.chip->as<VertexFragment>(restored->root_of(0));
  EXPECT_EQ(root->inserts_seen, 1u);
  EXPECT_EQ(root->deletes_seen, 0u);  // the v1 world never counted them
}

TEST(Deletion, DeleteThenReinsertInOneIncrementNetsOneRecord) {
  // Sub-phase order inside an increment is deletes first, then inserts —
  // on the chip, the oracle, and RefGraph alike. A same-pair delete +
  // insert therefore nets exactly one stored record.
  Fixture f;
  f.g->stream_increment(std::vector<StreamEdge>{{0, 1, 1}, {0, 1, 2}});
  ASSERT_EQ(f.g->stored_degree(0), 2u);
  f.g->stream_increment(
      std::vector<StreamEdge>{make_delete_edge(0, 1), make_insert_edge(0, 1, 9)});
  EXPECT_EQ(f.g->stored_degree(0), 1u);
  EXPECT_EQ(f.g->neighbors(0)[0].second, 9u);
}

}  // namespace
}  // namespace ccastream::graph

namespace ccastream::apps {
namespace {

using test::small_chip_config;

struct BfsFixture {
  explicit BfsFixture(std::uint64_t nverts,
                      sim::ChipConfig cfg = small_chip_config(),
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

  void expect_matches_oracle(const base::DynamicBfs& oracle,
                             const char* when) {
    for (std::uint64_t v = 0; v < g->num_vertices(); ++v) {
      const rt::Word want = oracle.level_of(v) == base::kUnreached
                                ? StreamingBfs::kUnreached
                                : oracle.level_of(v);
      ASSERT_EQ(bfs->level_of(*g, v), want) << when << ", vertex " << v;
    }
  }

  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<graph::GraphProtocol> proto;
  std::unique_ptr<StreamingBfs> bfs;
  std::unique_ptr<graph::StreamingGraph> g;
};

TEST(BfsDeletion, TreeEdgeDeletionRaisesLevelsThroughAlternatePath) {
  // 0 -> 3 directly (level 1) and 0 -> 1 -> 2 -> 3 the long way. Deleting
  // the shortcut must raise 3 to its alternate-path level, not orphan it.
  BfsFixture f(4);
  f.bfs->set_source(*f.g, 0);
  f.g->stream_increment(
      std::vector<StreamEdge>{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {0, 3, 1}});
  ASSERT_EQ(f.bfs->level_of(*f.g, 3), 1u);

  f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(0, 3)});
  EXPECT_EQ(f.bfs->level_of(*f.g, 3), 3u);
  EXPECT_EQ(f.bfs->level_of(*f.g, 1), 1u);
  EXPECT_EQ(f.bfs->level_of(*f.g, 2), 2u);
}

TEST(BfsDeletion, DeletionCanDisconnect) {
  BfsFixture f(4);
  f.bfs->set_source(*f.g, 0);
  f.g->stream_increment(
      std::vector<StreamEdge>{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}});
  ASSERT_EQ(f.bfs->level_of(*f.g, 3), 3u);

  f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(1, 2)});
  EXPECT_EQ(f.bfs->level_of(*f.g, 0), 0u);
  EXPECT_EQ(f.bfs->level_of(*f.g, 1), 1u);
  EXPECT_EQ(f.bfs->level_of(*f.g, 2), StreamingBfs::kUnreached);
  EXPECT_EQ(f.bfs->level_of(*f.g, 3), StreamingBfs::kUnreached);
}

TEST(BfsDeletion, DuplicateEdgesKeepVertexReachable) {
  // Two parallel (0, 1) records: deleting the pair removes both (delete-
  // all-matches), so reachability through them must go in one step.
  BfsFixture f(3);
  f.bfs->set_source(*f.g, 0);
  f.g->stream_increment(
      std::vector<StreamEdge>{{0, 1, 1}, {0, 1, 2}, {1, 2, 1}});
  ASSERT_EQ(f.bfs->level_of(*f.g, 2), 2u);
  f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(0, 1)});
  EXPECT_EQ(f.bfs->level_of(*f.g, 1), StreamingBfs::kUnreached);
  EXPECT_EQ(f.bfs->level_of(*f.g, 2), StreamingBfs::kUnreached);
}

TEST(BfsDeletion, MixedIncrementMatchesOracle) {
  // Deletes and inserts in one increment, including a delete + re-insert
  // of the same pair: both the chip and the oracle apply deletes first.
  BfsFixture f(6);
  f.bfs->set_source(*f.g, 0);
  base::DynamicBfs oracle(6, 0);
  const std::vector<StreamEdge> inc1{{0, 1, 1}, {1, 2, 1}, {2, 3, 1},
                                     {3, 4, 1}, {0, 5, 1}};
  f.g->stream_increment(inc1);
  oracle.apply_increment(inc1);
  f.expect_matches_oracle(oracle, "after insert increment");

  const std::vector<StreamEdge> inc2{make_delete_edge(1, 2),
                                     make_insert_edge(5, 2, 1),
                                     make_delete_edge(0, 5),
                                     make_insert_edge(0, 5, 1)};
  f.g->stream_increment(inc2);
  oracle.apply_increment(inc2);
  f.expect_matches_oracle(oracle, "after mixed increment");
  ASSERT_EQ(oracle.levels(), oracle.recompute());
}

// Property sweep: random interleavings of inserts and deletes, streamed in
// increments, across RPVO capacities and seeds — chip levels equal the
// deletion oracle's after every increment, and the oracle equals its own
// from-scratch recompute.
struct DeletionCase {
  std::uint64_t vertices;
  std::uint32_t edge_capacity;
  std::uint64_t seed;
};

class BfsDeletionEquivalence
    : public ::testing::TestWithParam<DeletionCase> {};

TEST_P(BfsDeletionEquivalence, MatchesOracleAfterEveryIncrement) {
  const auto p = GetParam();
  auto cfg = small_chip_config();
  cfg.seed = p.seed;
  graph::RpvoConfig rc;
  rc.edge_capacity = p.edge_capacity;
  BfsFixture f(p.vertices, cfg, rc);

  rt::Xoshiro256 rng(p.seed);
  const std::uint64_t source = rng.below(p.vertices);
  f.bfs->set_source(*f.g, source);
  base::DynamicBfs oracle(p.vertices, source);

  std::vector<StreamEdge> live;  // pairs believed present, for deletions
  for (int inc = 0; inc < 6; ++inc) {
    std::vector<StreamEdge> ops;
    for (int i = 0; i < 24; ++i) {
      const bool del = !live.empty() && rng.below(4) == 0;
      if (del) {
        const auto& victim = live[rng.below(live.size())];
        ops.push_back(make_delete_edge(victim.src, victim.dst));
        std::erase_if(live, [&](const StreamEdge& e) {
          return e.src == victim.src && e.dst == victim.dst;
        });
      } else {
        const StreamEdge e{rng.below(p.vertices), rng.below(p.vertices), 1};
        ops.push_back(e);
        live.push_back(e);
      }
    }
    f.g->stream_increment(ops);
    oracle.apply_increment(ops);
    ASSERT_TRUE(f.chip->quiescent());
    ASSERT_EQ(oracle.levels(), oracle.recompute())
        << "oracle self-check, seed " << p.seed << " increment " << inc;
    for (std::uint64_t v = 0; v < p.vertices; ++v) {
      const rt::Word want = oracle.level_of(v) == base::kUnreached
                                ? StreamingBfs::kUnreached
                                : oracle.level_of(v);
      ASSERT_EQ(f.bfs->level_of(*f.g, v), want)
          << "vertex " << v << " seed " << p.seed << " increment " << inc;
    }
  }
  EXPECT_GT(oracle.edges_deleted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BfsDeletionEquivalence,
    ::testing::Values(DeletionCase{16, 4, 101}, DeletionCase{24, 2, 102},
                      DeletionCase{32, 1, 103}, DeletionCase{32, 8, 104},
                      DeletionCase{48, 4, 105}, DeletionCase{20, 3, 106}));

TEST(BfsDeletion, SlidingWindowScheduleMatchesOracles) {
  // The tentpole integration: an SBM arrival stream windowed with drain,
  // streamed increment by increment. The chip must track the deletion
  // oracle throughout and end on the all-unreached empty graph.
  BfsFixture f(64);
  const auto arrivals =
      wl::make_graphchallenge_like(64, 400, wl::SamplingKind::kEdge, 5, 99);
  const auto sched = wl::apply_sliding_window(arrivals, /*window=*/2,
                                              /*drain=*/true);
  ASSERT_EQ(sched.increments.size(), arrivals.increments.size() + 2);
  f.bfs->set_source(*f.g, 0);
  base::DynamicBfs oracle(64, 0);
  for (const auto& inc : sched.increments) {
    f.g->stream_increment(inc);
    oracle.apply_increment(inc);
    f.expect_matches_oracle(oracle, "windowed increment");
  }
  // Drained: every record deleted, only the source still settled.
  EXPECT_TRUE(wl::live_edges(sched).empty());
  for (std::uint64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(f.g->stored_degree(v), 0u) << "vertex " << v;
    EXPECT_EQ(f.bfs->level_of(*f.g, v),
              v == 0 ? rt::Word{0} : StreamingBfs::kUnreached);
  }
}

// ---------------------------------------------------------------------------
// SSSP deletion repair (distance policy of the monotone-raise framework)
// ---------------------------------------------------------------------------

struct SsspFixture {
  explicit SsspFixture(std::uint64_t nverts,
                       sim::ChipConfig cfg = small_chip_config(),
                       graph::RpvoConfig rc = {}) {
    chip = std::make_unique<sim::Chip>(cfg);
    proto = std::make_unique<graph::GraphProtocol>(*chip, rc);
    sssp = std::make_unique<StreamingSssp>(*proto);
    sssp->install();
    graph::GraphConfig gc;
    gc.num_vertices = nverts;
    gc.root_init = StreamingSssp::initial_state();
    g = std::make_unique<graph::StreamingGraph>(*proto, gc);
  }

  void expect_matches_oracle(const base::DynamicSssp& oracle,
                             const char* when) {
    for (std::uint64_t v = 0; v < g->num_vertices(); ++v) {
      const rt::Word want = oracle.distance_of(v) == base::kUnreached
                                ? StreamingSssp::kUnreached
                                : oracle.distance_of(v);
      ASSERT_EQ(sssp->distance_of(*g, v), want) << when << ", vertex " << v;
    }
  }

  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<graph::GraphProtocol> proto;
  std::unique_ptr<StreamingSssp> sssp;
  std::unique_ptr<graph::StreamingGraph> g;
};

TEST(SsspDeletion, TreeArcDeletionRaisesDistanceThroughAlternatePath) {
  // 0 -> 3 with weight 2 (the shortest path) and 0 -> 1 -> 2 -> 3 at total
  // weight 4. Deleting the shortcut must raise 3 to the alternate cost.
  SsspFixture f(4);
  f.sssp->set_source(*f.g, 0);
  f.g->stream_increment(std::vector<StreamEdge>{
      {0, 1, 1}, {1, 2, 2}, {2, 3, 1}, {0, 3, 2}});
  ASSERT_EQ(f.sssp->distance_of(*f.g, 3), 2u);

  f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(0, 3)});
  EXPECT_EQ(f.sssp->distance_of(*f.g, 3), 4u);
  EXPECT_EQ(f.sssp->distance_of(*f.g, 1), 1u);
  EXPECT_EQ(f.sssp->distance_of(*f.g, 2), 3u);
}

TEST(SsspDeletion, NonTreeArcDeletionLeavesDistancesAlone) {
  // The conservative host seed (dist(dst) > dist(src)) fires for the
  // deleted heavy arc even though it carried nothing; resettle must
  // restore the exact distances it cleared.
  SsspFixture f(3);
  f.sssp->set_source(*f.g, 0);
  f.g->stream_increment(
      std::vector<StreamEdge>{{0, 1, 1}, {1, 2, 1}, {0, 2, 7}});
  ASSERT_EQ(f.sssp->distance_of(*f.g, 2), 2u);
  f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(0, 2)});
  EXPECT_EQ(f.sssp->distance_of(*f.g, 1), 1u);
  EXPECT_EQ(f.sssp->distance_of(*f.g, 2), 2u);
}

TEST(SsspDeletion, DeletionCanDisconnect) {
  SsspFixture f(4);
  f.sssp->set_source(*f.g, 0);
  f.g->stream_increment(
      std::vector<StreamEdge>{{0, 1, 3}, {1, 2, 2}, {2, 3, 4}});
  ASSERT_EQ(f.sssp->distance_of(*f.g, 3), 9u);
  f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(1, 2)});
  EXPECT_EQ(f.sssp->distance_of(*f.g, 1), 3u);
  EXPECT_EQ(f.sssp->distance_of(*f.g, 2), StreamingSssp::kUnreached);
  EXPECT_EQ(f.sssp->distance_of(*f.g, 3), StreamingSssp::kUnreached);
}

class SsspDeletionEquivalence
    : public ::testing::TestWithParam<DeletionCase> {};

TEST_P(SsspDeletionEquivalence, MatchesOracleAfterEveryIncrement) {
  const auto p = GetParam();
  auto cfg = small_chip_config();
  cfg.seed = p.seed;
  graph::RpvoConfig rc;
  rc.edge_capacity = p.edge_capacity;
  SsspFixture f(p.vertices, cfg, rc);

  rt::Xoshiro256 rng(p.seed);
  const std::uint64_t source = rng.below(p.vertices);
  f.sssp->set_source(*f.g, source);
  base::DynamicSssp oracle(p.vertices, source);

  std::vector<StreamEdge> live;
  for (int inc = 0; inc < 6; ++inc) {
    std::vector<StreamEdge> ops;
    for (int i = 0; i < 24; ++i) {
      const bool del = !live.empty() && rng.below(4) == 0;
      if (del) {
        const auto& victim = live[rng.below(live.size())];
        ops.push_back(make_delete_edge(victim.src, victim.dst));
        std::erase_if(live, [&](const StreamEdge& e) {
          return e.src == victim.src && e.dst == victim.dst;
        });
      } else {
        // Weighted arcs, 1..4 — parallel records of one pair may carry
        // different weights, and delete-all-matches clears them together.
        const StreamEdge e{rng.below(p.vertices), rng.below(p.vertices),
                           static_cast<std::uint32_t>(1 + rng.below(4))};
        ops.push_back(e);
        live.push_back(e);
      }
    }
    f.g->stream_increment(ops);
    oracle.apply_increment(ops);
    ASSERT_TRUE(f.chip->quiescent());
    ASSERT_EQ(oracle.distances(), oracle.recompute())
        << "oracle self-check, seed " << p.seed << " increment " << inc;
    for (std::uint64_t v = 0; v < p.vertices; ++v) {
      const rt::Word want = oracle.distance_of(v) == base::kUnreached
                                ? StreamingSssp::kUnreached
                                : oracle.distance_of(v);
      ASSERT_EQ(f.sssp->distance_of(*f.g, v), want)
          << "vertex " << v << " seed " << p.seed << " increment " << inc;
    }
  }
  EXPECT_GT(oracle.edges_deleted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SsspDeletionEquivalence,
    ::testing::Values(DeletionCase{16, 4, 201}, DeletionCase{24, 2, 202},
                      DeletionCase{32, 1, 203}, DeletionCase{32, 8, 204},
                      DeletionCase{48, 4, 205}, DeletionCase{20, 3, 206}));

TEST(SsspDeletion, SlidingWindowScheduleMatchesOracles) {
  SsspFixture f(64);
  const auto arrivals =
      wl::make_graphchallenge_like(64, 400, wl::SamplingKind::kEdge, 5, 99);
  const auto sched = wl::apply_sliding_window(arrivals, /*window=*/2,
                                              /*drain=*/true);
  f.sssp->set_source(*f.g, 0);
  base::DynamicSssp oracle(64, 0);
  for (const auto& inc : sched.increments) {
    f.g->stream_increment(inc);
    oracle.apply_increment(inc);
    f.expect_matches_oracle(oracle, "windowed increment");
  }
  EXPECT_TRUE(wl::live_edges(sched).empty());
  for (std::uint64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(f.g->stored_degree(v), 0u) << "vertex " << v;
    EXPECT_EQ(f.sssp->distance_of(*f.g, v),
              v == 0 ? rt::Word{0} : StreamingSssp::kUnreached);
  }
}

// ---------------------------------------------------------------------------
// Components deletion repair (label policy: reset-to-self-id, protect the
// label source)
// ---------------------------------------------------------------------------

struct ComponentsFixture {
  explicit ComponentsFixture(std::uint64_t nverts,
                             sim::ChipConfig cfg = small_chip_config(),
                             graph::RpvoConfig rc = {}) {
    chip = std::make_unique<sim::Chip>(cfg);
    proto = std::make_unique<graph::GraphProtocol>(*chip, rc);
    comps = std::make_unique<StreamingComponents>(*proto);
    comps->install();
    graph::GraphConfig gc;
    gc.num_vertices = nverts;
    gc.root_init = StreamingComponents::initial_state();
    g = std::make_unique<graph::StreamingGraph>(*proto, gc);
    comps->seed_labels(*g);
  }

  void expect_matches_oracle(const base::DynamicComponents& oracle,
                             const char* when) {
    for (std::uint64_t v = 0; v < g->num_vertices(); ++v) {
      ASSERT_EQ(comps->label_of(*g, v), oracle.label_of(v))
          << when << ", vertex " << v;
    }
  }

  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<graph::GraphProtocol> proto;
  std::unique_ptr<StreamingComponents> comps;
  std::unique_ptr<graph::StreamingGraph> g;
};

TEST(ComponentsDeletion, SplittingAComponentRestoresPerSideMinima) {
  // 0 <-> 1 <-> 2 as symmetric pairs plus the bridge 1 -> 3 -> 4 side.
  // Cutting the bridge must give the severed side its own minimum back.
  ComponentsFixture f(5);
  f.g->stream_increment(std::vector<StreamEdge>{
      {0, 1, 1}, {1, 0, 1}, {1, 2, 1}, {2, 1, 1}, {1, 3, 1}, {3, 4, 1}});
  ASSERT_EQ(f.comps->label_of(*f.g, 3), 0u);
  ASSERT_EQ(f.comps->label_of(*f.g, 4), 0u);

  f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(1, 3)});
  EXPECT_EQ(f.comps->label_of(*f.g, 0), 0u);
  EXPECT_EQ(f.comps->label_of(*f.g, 1), 0u);
  EXPECT_EQ(f.comps->label_of(*f.g, 2), 0u);
  EXPECT_EQ(f.comps->label_of(*f.g, 3), 3u);
  EXPECT_EQ(f.comps->label_of(*f.g, 4), 3u);
}

TEST(ComponentsDeletion, LabelSourceSurvivesWaveThroughIt) {
  // 5 -> 0 -> 6 all labelled 0... except the wave for deleting (5, 0)
  // must protect vertex 0 (its label is its own id) and therefore leave
  // the 0-derived label at 6 intact too.
  ComponentsFixture f(7);
  f.g->stream_increment(std::vector<StreamEdge>{{5, 0, 1}, {0, 6, 1}});
  ASSERT_EQ(f.comps->label_of(*f.g, 0), 0u);
  ASSERT_EQ(f.comps->label_of(*f.g, 6), 0u);
  ASSERT_EQ(f.comps->label_of(*f.g, 5), 5u);

  f.g->stream_increment(std::vector<StreamEdge>{make_delete_edge(5, 0)});
  EXPECT_EQ(f.comps->label_of(*f.g, 0), 0u);
  EXPECT_EQ(f.comps->label_of(*f.g, 6), 0u);
  EXPECT_EQ(f.comps->label_of(*f.g, 5), 5u);
}

class ComponentsDeletionEquivalence
    : public ::testing::TestWithParam<DeletionCase> {};

TEST_P(ComponentsDeletionEquivalence, MatchesOracleAfterEveryIncrement) {
  const auto p = GetParam();
  auto cfg = small_chip_config();
  cfg.seed = p.seed;
  graph::RpvoConfig rc;
  rc.edge_capacity = p.edge_capacity;
  ComponentsFixture f(p.vertices, cfg, rc);

  rt::Xoshiro256 rng(p.seed);
  base::DynamicComponents oracle(p.vertices);

  std::vector<StreamEdge> live;
  for (int inc = 0; inc < 6; ++inc) {
    std::vector<StreamEdge> ops;
    for (int i = 0; i < 24; ++i) {
      const bool del = !live.empty() && rng.below(4) == 0;
      if (del) {
        const auto& victim = live[rng.below(live.size())];
        ops.push_back(make_delete_edge(victim.src, victim.dst));
        std::erase_if(live, [&](const StreamEdge& e) {
          return e.src == victim.src && e.dst == victim.dst;
        });
      } else {
        const StreamEdge e{rng.below(p.vertices), rng.below(p.vertices), 1};
        ops.push_back(e);
        live.push_back(e);
      }
    }
    f.g->stream_increment(ops);
    oracle.apply_increment(ops);
    ASSERT_TRUE(f.chip->quiescent());
    ASSERT_EQ(oracle.labels(), oracle.recompute())
        << "oracle self-check, seed " << p.seed << " increment " << inc;
    for (std::uint64_t v = 0; v < p.vertices; ++v) {
      ASSERT_EQ(f.comps->label_of(*f.g, v), oracle.label_of(v))
          << "vertex " << v << " seed " << p.seed << " increment " << inc;
    }
  }
  EXPECT_GT(oracle.edges_deleted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ComponentsDeletionEquivalence,
    ::testing::Values(DeletionCase{16, 4, 301}, DeletionCase{24, 2, 302},
                      DeletionCase{32, 1, 303}, DeletionCase{32, 8, 304},
                      DeletionCase{48, 4, 305}, DeletionCase{20, 3, 306}));

TEST(ComponentsDeletion, SlidingWindowScheduleMatchesOracles) {
  ComponentsFixture f(64);
  const auto arrivals =
      wl::make_graphchallenge_like(64, 400, wl::SamplingKind::kEdge, 5, 99);
  const auto sched = wl::apply_sliding_window(arrivals, /*window=*/2,
                                              /*drain=*/true);
  base::DynamicComponents oracle(64);
  for (const auto& inc : sched.increments) {
    f.g->stream_increment(inc);
    oracle.apply_increment(inc);
    f.expect_matches_oracle(oracle, "windowed increment");
  }
  // Drained: the empty graph's labels are each vertex's own id.
  EXPECT_TRUE(wl::live_edges(sched).empty());
  for (std::uint64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(f.g->stored_degree(v), 0u) << "vertex " << v;
    EXPECT_EQ(f.comps->label_of(*f.g, v), v);
  }
}

// ---------------------------------------------------------------------------
// Fail-loud contract: apps without a deletion story must abort
// deterministically on a deleting increment, not give silent wrong answers.
// ---------------------------------------------------------------------------

using DeletionDeathTest = ::testing::Test;

TEST(DeletionDeathTest, PageRankRefusesToSeedAfterDeletions) {
  auto chip = std::make_unique<sim::Chip>(small_chip_config());
  graph::GraphProtocol proto(*chip, {});
  PageRank pr(proto);  // installs no hooks: structure-only deletion runs
  graph::GraphConfig gc;
  gc.num_vertices = 8;
  graph::StreamingGraph g(proto, gc);
  g.stream_increment(std::vector<StreamEdge>{{0, 1, 1}, {1, 2, 1}});
  g.stream_increment(std::vector<StreamEdge>{make_delete_edge(0, 1)});
  EXPECT_DEATH(pr.seed(g),
               "fatal misuse: PageRank::seed on a graph that streamed "
               "deletions");
}

TEST(DeletionDeathTest, TriangleCounterRefusesToStartAfterDeletions) {
  auto chip = std::make_unique<sim::Chip>(small_chip_config());
  graph::GraphProtocol proto(*chip, {});
  TriangleCounter tri(proto);
  graph::GraphConfig gc;
  gc.num_vertices = 8;
  graph::StreamingGraph g(proto, gc);
  g.stream_increment(
      std::vector<StreamEdge>{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}});
  g.stream_increment(std::vector<StreamEdge>{make_delete_edge(2, 0)});
  EXPECT_DEATH(tri.start(g),
               "fatal misuse: TriangleCounter::start on a graph that "
               "streamed deletions");
}

TEST(DeletionDeathTest, InsertChainingAppWithoutRepairDiesOnDeletes) {
  // An app that chains computation off on_edge_inserted but provides no
  // host_repair (reachability is the in-tree example) must hit the
  // stream_increment misuse check up front.
  auto chip = std::make_unique<sim::Chip>(small_chip_config());
  graph::GraphProtocol proto(*chip, {});
  MultiSourceReach reach(proto);
  reach.install();
  graph::GraphConfig gc;
  gc.num_vertices = 8;
  graph::StreamingGraph g(proto, gc);
  g.stream_increment(std::vector<StreamEdge>{{0, 1, 1}});
  EXPECT_DEATH(
      g.stream_increment(std::vector<StreamEdge>{make_delete_edge(0, 1)}),
      "fatal misuse: stream_increment: deleting increment under an app "
      "without deletion repair");
}

}  // namespace
}  // namespace ccastream::apps
