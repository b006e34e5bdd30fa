// Checkpoint/restore: a restored graph is observationally identical and
// continues streaming exactly like the uninterrupted original. The digest:
// StreamingGraph::digest() of the live fragments equals
// parse_snapshot_digest of the saved text, and both text readers reject
// malformed input.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "test_util.hpp"

namespace ccastream::graph {
namespace {

using test::small_chip_config;

struct Rig {  // NOLINT(readability-identifier-naming)
  explicit Rig(std::uint64_t nverts, std::uint32_t rhizomes = 1,
                 std::uint32_t edge_capacity = 3, std::uint32_t ghost_fanout = 1) {
    chip = std::make_unique<sim::Chip>(small_chip_config());
    RpvoConfig rc;
    rc.edge_capacity = edge_capacity;
    rc.ghost_fanout = ghost_fanout;
    proto = std::make_unique<GraphProtocol>(*chip, rc);
    bfs = std::make_unique<apps::StreamingBfs>(*proto);
    bfs->install();
    GraphConfig gc;
    gc.num_vertices = nverts;
    gc.rhizomes = rhizomes;
    gc.root_init = apps::StreamingBfs::initial_state();
    g = std::make_unique<StreamingGraph>(*proto, gc);
  }
  /// Fresh chip + protocol for the restore side.
  Rig clone_empty() const {
    Rig s;
    s.chip = std::make_unique<sim::Chip>(small_chip_config());
    s.proto = std::make_unique<GraphProtocol>(*s.chip, proto->rpvo_config());
    s.bfs = std::make_unique<apps::StreamingBfs>(*s.proto);
    s.bfs->install();
    return s;
  }
  Rig() = default;
  std::unique_ptr<sim::Chip> chip;
  std::unique_ptr<GraphProtocol> proto;
  std::unique_ptr<apps::StreamingBfs> bfs;
  std::unique_ptr<StreamingGraph> g;
};

std::vector<StreamEdge> random_edges(std::uint64_t n, int count, std::uint64_t seed) {
  rt::Xoshiro256 rng(seed);
  std::vector<StreamEdge> edges;
  for (int i = 0; i < count; ++i) {
    edges.push_back({rng.below(n), rng.below(n),
                     static_cast<std::uint32_t>(1 + rng.below(4))});
  }
  return edges;
}

TEST(Snapshot, RoundTripPreservesStructureAndState) {
  Rig a(40);
  a.bfs->set_source(*a.g, 0);
  a.g->stream_increment(random_edges(40, 300, 11));

  std::stringstream snap;
  a.g->save_snapshot(snap);

  Rig b = a.clone_empty();
  b.g = StreamingGraph::load_snapshot(*b.proto, snap);

  for (std::uint64_t v = 0; v < 40; ++v) {
    EXPECT_EQ(b.g->stored_degree(v), a.g->stored_degree(v)) << "vertex " << v;
    EXPECT_EQ(b.g->neighbors(v), a.g->neighbors(v)) << "vertex " << v;
    EXPECT_EQ(b.bfs->level_of(*b.g, v), a.bfs->level_of(*a.g, v)) << "vertex " << v;
    EXPECT_EQ(b.g->fragments_of(v), a.g->fragments_of(v)) << "vertex " << v;
  }
}

TEST(Snapshot, StreamingContinuesIdentically) {
  // Stream half, checkpoint, restore elsewhere, stream the other half on
  // both: final levels and degrees must agree everywhere.
  const std::uint64_t n = 60;
  const auto all = random_edges(n, 500, 12);
  const std::vector<StreamEdge> first(all.begin(), all.begin() + 250);
  const std::vector<StreamEdge> second(all.begin() + 250, all.end());

  Rig a(n);
  a.bfs->set_source(*a.g, 3);
  a.g->stream_increment(first);

  std::stringstream snap;
  a.g->save_snapshot(snap);
  Rig b = a.clone_empty();
  b.g = StreamingGraph::load_snapshot(*b.proto, snap);

  a.g->stream_increment(second);
  b.g->stream_increment(second);

  const auto ref = base::bfs_levels(test::ref_graph_of(n, all), 3);
  for (std::uint64_t v = 0; v < n; ++v) {
    EXPECT_EQ(a.g->stored_degree(v), b.g->stored_degree(v));
    const rt::Word want = ref[v] == base::kUnreached
                              ? apps::StreamingBfs::kUnreached
                              : ref[v];
    EXPECT_EQ(a.bfs->level_of(*a.g, v), want);
    EXPECT_EQ(b.bfs->level_of(*b.g, v), want);
  }
}

TEST(Snapshot, PreservesRhizomes) {
  Rig a(16, /*rhizomes=*/3);
  a.bfs->set_source(*a.g, 0);
  a.g->stream_increment(random_edges(16, 150, 13));

  std::stringstream snap;
  a.g->save_snapshot(snap);
  Rig b = a.clone_empty();
  b.g = StreamingGraph::load_snapshot(*b.proto, snap);

  EXPECT_EQ(b.g->rhizome_count(), 3u);
  for (std::uint64_t v = 0; v < 16; ++v) {
    const auto ra = a.g->rhizome_roots(v);
    const auto rb = b.g->rhizome_roots(v);
    ASSERT_EQ(std::vector(ra.begin(), ra.end()), std::vector(rb.begin(), rb.end()));
  }
}

TEST(Snapshot, RefusesNonQuiescentChip) {
  Rig a(8);
  a.g->enqueue_edge({0, 1, 1});  // work queued, not run
  std::stringstream snap;
  EXPECT_THROW(a.g->save_snapshot(snap), std::logic_error);
  EXPECT_THROW((void)a.g->digest(), std::logic_error);
}

TEST(Snapshot, RejectsGeometryMismatch) {
  Rig a(8);
  a.g->stream_increment(random_edges(8, 20, 14));
  std::stringstream snap;
  a.g->save_snapshot(snap);

  sim::Chip other(test::small_chip_config(4));  // different mesh
  GraphProtocol proto(other, a.proto->rpvo_config());
  EXPECT_THROW(StreamingGraph::load_snapshot(proto, snap), std::runtime_error);
}

TEST(Snapshot, RejectsRpvoMismatch) {
  Rig a(8, 1, /*edge_capacity=*/3);
  a.g->stream_increment(random_edges(8, 20, 15));
  std::stringstream snap;
  a.g->save_snapshot(snap);

  sim::Chip other(small_chip_config());
  RpvoConfig rc;
  rc.edge_capacity = 5;  // mismatch
  GraphProtocol proto(other, rc);
  EXPECT_THROW(StreamingGraph::load_snapshot(proto, snap), std::runtime_error);
}

TEST(Snapshot, RejectsGarbage) {
  sim::Chip chip(small_chip_config());
  GraphProtocol proto(chip);
  std::stringstream junk("definitely not a snapshot");
  EXPECT_THROW(StreamingGraph::load_snapshot(proto, junk), std::runtime_error);
}

TEST(Snapshot, RestoreIntoUsedChipFails) {
  Rig a(8);
  a.g->stream_increment(random_edges(8, 30, 16));
  std::stringstream snap;
  a.g->save_snapshot(snap);

  // The destination chip already carries fragments: placement diverges.
  Rig b(8);
  b.g->stream_increment(random_edges(8, 10, 17));
  EXPECT_THROW(StreamingGraph::load_snapshot(*b.proto, snap),
               std::runtime_error);
}

// --- The digest: one builder, one text reader ---------------------------------

std::string save(const StreamingGraph& g) {
  std::ostringstream out;
  g.save_snapshot(out);
  return out.str();
}

SnapshotDigest parse(const std::string& text) {
  std::istringstream in(text);
  return parse_snapshot_digest(in);
}

TEST(SnapshotDigest, LiveDigestEqualsParsedTextAfterEveryIncrement) {
  const std::uint64_t n = 40;
  for (const std::uint32_t rhizomes : {1u, 3u}) {
    for (const std::uint32_t fanout : {1u, 2u}) {
      SCOPED_TRACE("rhizomes " + std::to_string(rhizomes) + ", ghost fan-out " +
                   std::to_string(fanout));
      auto sched = wl::make_graphchallenge_like(n, 400, wl::SamplingKind::kEdge,
                                                /*increments=*/6, /*seed=*/21);
      // Deletes need rhizomes == 1, so only those legs slide a window.
      if (rhizomes == 1) sched = wl::apply_sliding_window(sched, 2, /*drain=*/true);
      Rig a(n, rhizomes, /*edge_capacity=*/2, fanout);
      a.bfs->set_source(*a.g, 0);

      std::uint64_t deletes = 0;
      for (std::size_t k = 0; k <= sched.increments.size(); ++k) {
        if (k > 0) deletes += a.g->stream_increment(sched.increments[k - 1]).deletes;
        const std::string text = save(*a.g);
        const SnapshotDigest live = a.g->digest();
        EXPECT_EQ(live, parse(text)) << "after increment " << k;
        EXPECT_EQ(live, parse(test::to_v1_snapshot(text))) << "after increment " << k;
        for (std::uint64_t v = 0; v < n; ++v) {
          std::vector<std::pair<std::uint64_t, std::uint32_t>> arcs;
          for (const auto& arc : live.adjacency[v]) {
            arcs.emplace_back(arc.dst, arc.weight);
          }
          EXPECT_EQ(arcs, a.g->neighbors(v)) << "vertex " << v;
        }
      }
      EXPECT_EQ(deletes > 0, rhizomes == 1);
    }
  }
}

/// A 16-vertex graph at edge capacity 2, so most vertices have ghosts.
struct MalformedRig {
  MalformedRig() : a(16, /*rhizomes=*/1, /*edge_capacity=*/2) {
    a.bfs->set_source(*a.g, 0);
    a.g->stream_increment(random_edges(16, 80, 18));
    text = save(*a.g);
  }
  /// A vertex's root and first ghost, where the ghost's block comes later
  /// in the text than the root's.
  [[nodiscard]] std::pair<rt::GlobalAddress, rt::GlobalAddress> root_then_ghost() const {
    for (std::uint64_t v = 0; v < 16; ++v) {
      const auto chain = a.g->fragments_of(v);
      if (chain.size() >= 2 && block_at(chain[0]) < block_at(chain[1])) {
        return {chain[0], chain[1]};
      }
    }
    ADD_FAILURE() << "no vertex has a ghost stored after its root";
    return {};
  }
  /// Offset of the fragment block of `addr` in the text.
  [[nodiscard]] std::size_t block_at(rt::GlobalAddress addr) const {
    const auto pos = text.find("\nfrag " + std::to_string(addr.cc) + ' ' +
                               std::to_string(addr.slot) + ' ');
    EXPECT_NE(pos, std::string::npos);
    return pos + 1;
  }
  Rig a;
  std::string text;
};

std::string replace_first(std::string text, const std::string& from,
                          const std::string& to, std::size_t start = 0) {
  const auto pos = text.find(from, start);
  EXPECT_NE(pos, std::string::npos) << "'" << from << "' not in the text";
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

TEST(SnapshotDigest, BothReadersRejectMalformedText) {
  const MalformedRig m;
  const std::string& text = m.text;
  const std::vector<std::pair<const char*, std::string>> cases = {
      {"unknown version", replace_first(text, "snapshot v2", "snapshot v9")},
      {"roots table size mismatch", replace_first(text, "roots 16 ", "roots 17 ")},
      {"bad ghost state", replace_first(text, "ghosts 1 E", "ghosts 1 X")},
      {"ghost fan-out mismatch", replace_first(text, "ghosts 1 ", "ghosts 2 ")},
      {"edge count over capacity", replace_first(text, "edges 2 ", "edges 3 ")},
      {"truncated in the graph line", text.substr(0, text.find("graph ") + 8)},
      {"truncated in the roots table", text.substr(0, text.find("roots ") + 12)},
      {"truncated in a fragment block", text.substr(0, text.find("\nghosts ") + 1)},
  };
  {
    std::istringstream in(text);
    Rig b = m.a.clone_empty();
    ASSERT_NO_THROW((void)StreamingGraph::load_snapshot(*b.proto, in));
    ASSERT_NO_THROW((void)parse(text));
  }
  for (const auto& [what, bad] : cases) {
    SCOPED_TRACE(what);
    EXPECT_THROW((void)parse(bad), std::runtime_error);
    std::istringstream in(bad);
    Rig b = m.a.clone_empty();
    EXPECT_THROW((void)StreamingGraph::load_snapshot(*b.proto, in),
                 std::runtime_error);
  }
}

TEST(SnapshotDigest, LoaderRejectsRootsOnNonConsecutiveSlots) {
  // Cell 0 holds vertex 0's root, its ghost, then vertex 1's root. The
  // chains are sound, so the parser (which keeps its own roots table)
  // reads it, but a graph built on a chip places every root before any
  // ghost, and the loader's root index relies on that.
  const std::string null = std::to_string(rt::kNullAddress.pack());
  const std::string frag_tail = " " + null + " 0 0\napp 0 0 0 0\nedges 0\n";
  const std::string text =
      "ccastream-snapshot v2\nchip 8 8\nrpvo 2 1\ngraph 2 1 0 0\nroots 2 0 2\n"
      "frag 0 0 0 1 0" + frag_tail + "ghosts 1 R 1\nend\n"
      "frag 0 1 0 0 0" + frag_tail + "ghosts 1 E\nend\n"
      "frag 0 2 1 1 2" + frag_tail + "ghosts 1 E\nend\n";
  EXPECT_EQ(parse(text).num_vertices, 2u);
  Rig b = Rig(2, /*rhizomes=*/1, /*edge_capacity=*/2).clone_empty();
  std::istringstream in(text);
  EXPECT_THROW((void)StreamingGraph::load_snapshot(*b.proto, in), std::runtime_error);
}

TEST(SnapshotDigest, ParserRejectsBrokenChains) {
  // Both readers check chain integrity and edge targets before trusting a
  // block; load_snapshot does so before it places anything, since a
  // restored cycle would hang every later chain walk and stream.
  const MalformedRig m;
  const auto [root, ghost] = m.root_then_ghost();
  const auto expect_both_reject = [&](const std::string& bad) {
    EXPECT_THROW((void)parse(bad), std::runtime_error);
    std::istringstream in(bad);
    Rig b = m.a.clone_empty();
    EXPECT_THROW((void)StreamingGraph::load_snapshot(*b.proto, in),
                 std::runtime_error);
    EXPECT_EQ(b.chip->cell(root.cc).arena.object_count(), 0u)
        << "load_snapshot placed fragments before its checks";
  };

  // An edge record pointing at a ghost fragment instead of a root.
  const auto edges = m.text.find("\nedges 2 ") + std::string("\nedges 2 ").size();
  std::string to_ghost = m.text;
  to_ghost.replace(edges, m.text.find(' ', edges) - edges, std::to_string(ghost.pack()));
  {
    SCOPED_TRACE("edge to a ghost");
    expect_both_reject(to_ghost);
  }
  {
    // Cut after the root's block, before its ghost's: the link dangles.
    SCOPED_TRACE("dangling link");
    expect_both_reject(m.text.substr(0, m.block_at(ghost)));
  }
  {
    // The root's ghost link points back at the root: a cycle.
    SCOPED_TRACE("cycle");
    expect_both_reject(replace_first(m.text, "R " + std::to_string(ghost.pack()),
                                     "R " + std::to_string(root.pack()),
                                     m.block_at(root)));
  }
}

}  // namespace
}  // namespace ccastream::graph
