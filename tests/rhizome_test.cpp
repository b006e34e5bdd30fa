// Rhizome support: multiple root fragments per vertex (the hub-spreading
// extension from the authors' companion design). Invariants: edges are
// conserved across all rhizomes' chains, monotone apps converge to the same
// answers as with a single root, hub load actually spreads, and the
// unsupported apps refuse loudly.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "test_util.hpp"

namespace ccastream::graph {
namespace {

using test::small_chip_config;

struct RhizomeFixture {
  RhizomeFixture(std::uint64_t nverts, std::uint32_t rhizomes,
                 std::uint32_t edge_capacity = 4,
                 sim::ChipConfig cfg = small_chip_config()) {
    chip = std::make_unique<sim::Chip>(cfg);
    RpvoConfig rc;
    rc.edge_capacity = edge_capacity;
    proto = std::make_unique<GraphProtocol>(*chip, rc);
    bfs = std::make_unique<apps::StreamingBfs>(*proto);
    bfs->install();
    GraphConfig gc;
    gc.num_vertices = nverts;
    gc.rhizomes = rhizomes;
    gc.root_init = apps::StreamingBfs::initial_state();
    g = std::make_unique<StreamingGraph>(*proto, gc);
  }
  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<GraphProtocol> proto;
  std::unique_ptr<apps::StreamingBfs> bfs;
  std::unique_ptr<StreamingGraph> g;
};

TEST(Rhizomes, RootsFormARing) {
  RhizomeFixture f(4, 3);
  for (std::uint64_t vid = 0; vid < 4; ++vid) {
    const auto roots = f.g->rhizome_roots(vid);
    ASSERT_EQ(roots.size(), 3u);
    // Follow the ring: must visit all three roots and return to the start.
    rt::GlobalAddress cur = roots[0];
    std::set<rt::Word> seen;
    for (int i = 0; i < 3; ++i) {
      seen.insert(cur.pack());
      cur = f.chip->as<VertexFragment>(cur)->rhizome_next;
    }
    EXPECT_EQ(cur, roots[0]);
    EXPECT_EQ(seen.size(), 3u);
  }
}

TEST(Rhizomes, SingleRhizomeHasNoRing) {
  RhizomeFixture f(4, 1);
  for (std::uint64_t vid = 0; vid < 4; ++vid) {
    EXPECT_TRUE(
        f.chip->as<VertexFragment>(f.g->root_of(vid))->rhizome_next.is_null());
  }
}

TEST(Rhizomes, EdgesConservedAcrossRhizomes) {
  RhizomeFixture f(8, 3, /*edge_capacity=*/2);
  std::vector<StreamEdge> edges;
  std::vector<std::uint64_t> expect(8, 0);
  rt::Xoshiro256 rng(5);
  for (int i = 0; i < 200; ++i) {
    const StreamEdge e{rng.below(8), rng.below(8), 1};
    edges.push_back(e);
    ++expect[e.src];
  }
  f.g->stream_increment(edges);
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(f.g->stored_degree(v), expect[v]) << "vertex " << v;
  }
}

TEST(Rhizomes, InsertsSpreadOverRoots) {
  // A hub with 120 out-edges and 4 rhizomes: each root should ingest ~30.
  RhizomeFixture f(8, 4, /*edge_capacity=*/64);
  std::vector<StreamEdge> edges;
  for (std::uint64_t i = 0; i < 120; ++i) edges.push_back({0, 1 + (i % 7), 1});
  f.g->stream_increment(edges);
  for (const auto root : f.g->rhizome_roots(0)) {
    const auto* frag = f.chip->as<VertexFragment>(root);
    EXPECT_EQ(frag->inserts_seen, 30u);
  }
}

struct RhizomeBfsCase {
  std::uint32_t rhizomes;
  std::uint64_t vertices;
  std::uint64_t edges;
  std::uint64_t seed;
};

class RhizomeBfs : public ::testing::TestWithParam<RhizomeBfsCase> {};

TEST_P(RhizomeBfs, LevelsMatchOracle) {
  const auto p = GetParam();
  RhizomeFixture f(p.vertices, p.rhizomes);
  rt::Xoshiro256 rng(p.seed);
  std::vector<StreamEdge> all;
  for (std::uint64_t i = 0; i < p.edges; ++i) {
    all.push_back({rng.below(p.vertices), rng.below(p.vertices), 1});
  }
  const std::uint64_t source = rng.below(p.vertices);
  f.bfs->set_source(*f.g, source);
  base::DynamicBfs oracle(p.vertices, source);

  const std::size_t half = all.size() / 2;
  for (const auto& inc :
       {std::vector<StreamEdge>(all.begin(), all.begin() + half),
        std::vector<StreamEdge>(all.begin() + half, all.end())}) {
    f.g->stream_increment(inc);
    oracle.apply_increment(inc);
    for (std::uint64_t v = 0; v < p.vertices; ++v) {
      const rt::Word want = oracle.level_of(v) == base::kUnreached
                                ? apps::StreamingBfs::kUnreached
                                : oracle.level_of(v);
      ASSERT_EQ(f.bfs->level_of(*f.g, v), want)
          << "vertex " << v << " rhizomes " << p.rhizomes;
    }
    // Ring synchronisation: every rhizome root agrees with the primary.
    for (std::uint64_t v = 0; v < p.vertices; ++v) {
      for (const auto root : f.g->rhizome_roots(v)) {
        ASSERT_EQ(f.chip->as<VertexFragment>(root)
                      ->app[apps::StreamingBfs::kLevelWord],
                  f.bfs->level_of(*f.g, v));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RhizomeBfs,
    ::testing::Values(RhizomeBfsCase{2, 32, 150, 1}, RhizomeBfsCase{3, 32, 150, 2},
                      RhizomeBfsCase{4, 64, 400, 3}, RhizomeBfsCase{2, 64, 400, 4},
                      RhizomeBfsCase{8, 16, 80, 5}));

TEST(Rhizomes, ComponentsAgreeAcrossRing) {
  auto chip = std::make_unique<sim::Chip>(small_chip_config());
  GraphProtocol proto(*chip);
  apps::StreamingComponents cc(proto);
  cc.install();
  GraphConfig gc;
  gc.num_vertices = 20;
  gc.rhizomes = 3;
  gc.root_init = apps::StreamingComponents::initial_state();
  StreamingGraph g(proto, gc);
  cc.seed_labels(g);

  rt::Xoshiro256 rng(9);
  std::vector<StreamEdge> edges;
  for (int i = 0; i < 30; ++i) {
    const StreamEdge e{rng.below(20), rng.below(20), 1};
    if (e.src != e.dst) edges.push_back(e);
  }
  const auto sym = wl::symmetrize(edges);
  g.stream_increment(sym);
  const auto ref = base::component_min_labels(test::ref_graph_of(20, sym));
  for (std::uint64_t v = 0; v < 20; ++v) {
    ASSERT_EQ(cc.label_of(g, v), ref[v]) << "vertex " << v;
  }
}

TEST(Rhizomes, UnsupportedAppsThrow) {
  auto chip = std::make_unique<sim::Chip>(small_chip_config());
  GraphProtocol proto(*chip);
  apps::PageRank pr(proto);
  apps::TriangleCounter tri(proto);
  apps::JaccardQuery jacc(proto);
  GraphConfig gc;
  gc.num_vertices = 4;
  gc.rhizomes = 2;
  StreamingGraph g(proto, gc);
  EXPECT_THROW(pr.seed(g), std::invalid_argument);
  EXPECT_THROW(tri.start(g), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(jacc.query(g, 0, 1)), std::invalid_argument);
}

TEST(Rhizomes, ZeroRhizomesClampedToOne) {
  auto chip = std::make_unique<sim::Chip>(small_chip_config());
  GraphProtocol proto(*chip);
  GraphConfig gc;
  gc.num_vertices = 2;
  gc.rhizomes = 0;
  StreamingGraph g(proto, gc);
  EXPECT_EQ(g.rhizome_count(), 1u);
}

}  // namespace
}  // namespace ccastream::graph
