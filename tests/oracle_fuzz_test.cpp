// Randomized oracle cross-checks: ~20 seeded random instances mixing
// R-MAT and SBM workloads, mesh shapes, thread counts, apps, engines,
// windows and streaming orders, each streamed as interleaved edge increments and verified
// vertex-by-vertex against the `base::` sequential oracles. Every instance
// derives from a printed seed so any failure replays exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "test_util.hpp"

namespace ccastream {
namespace {

struct Instance {
  std::uint64_t seed = 0;
  bool rmat = false;
  std::uint64_t vertices = 0;
  std::uint64_t edges = 0;
  std::uint32_t mesh_dim = 8;
  std::uint32_t threads = 1;
  std::uint32_t increments = 3;
  std::uint32_t edge_capacity = 16;
  wl::SamplingKind sampling = wl::SamplingKind::kEdge;
  int app = 0;  // 0 = bfs, 1 = sssp, 2 = components
  sim::EngineKind engine = sim::EngineKind::kScan;
  std::uint32_t window = 0;     // sliding window (0 = insert-only stream)

  [[nodiscard]] std::string describe() const {
    return "replay seed=" + std::to_string(seed) +
           " workload=" + (rmat ? "rmat" : "sbm") +
           " vertices=" + std::to_string(vertices) +
           " edges=" + std::to_string(edges) +
           " mesh=" + std::to_string(mesh_dim) + "x" + std::to_string(mesh_dim) +
           " threads=" + std::to_string(threads) +
           " increments=" + std::to_string(increments) +
           " edge_capacity=" + std::to_string(edge_capacity) +
           " sampling=" + std::string(wl::to_string(sampling)) +
           " app=" + (app == 0 ? "bfs" : app == 1 ? "sssp" : "components") +
           " engine=" + std::string(sim::to_string(engine)) +
           " window=" + std::to_string(window);
  }
};

/// Expands a replay seed into a full instance. All parameters derive from
/// the seed alone, so one printed number reproduces the whole run.
Instance make_instance(std::uint64_t seed) {
  rt::Xoshiro256 rng(seed);
  Instance in;
  in.seed = seed;
  in.rmat = rng.bernoulli(0.5);
  in.vertices = 150 + rng.below(450);
  in.edges = in.vertices * (3 + rng.below(5));
  // 16, not 8: both engines run a chip serially while it holds at most 32
  // live cells per partition, so an 8x8 mesh at 2+ threads would never
  // reach the pooled (barrier) schedule; the 16x16 instances do.
  in.mesh_dim = rng.bernoulli(0.5) ? 16 : 4;
  in.threads = 1u << rng.below(3);  // 1, 2, or 4
  in.increments = 2 + static_cast<std::uint32_t>(rng.below(4));
  in.edge_capacity = 4u << rng.below(3);  // 4, 8, or 16
  in.sampling = rng.bernoulli(0.5) ? wl::SamplingKind::kSnowball
                                   : wl::SamplingKind::kEdge;
  in.app = static_cast<int>(rng.below(3));
  // Retired draw: this slot chose whether the row stripes rebalanced, and
  // the partition rule is fixed now. It is still consumed, so every
  // replay seed printed before keeps its draws below.
  static_cast<void>(rng.bernoulli(0.5));
  // Engine draw, appended after it so older replay seeds keep their
  // meaning for every field above: half the instances run
  // the event-driven active-set engine, half the full-scan oracle, so any
  // set-maintenance divergence shows up against base:: references too.
  in.engine = rng.bernoulli(0.5) ? sim::EngineKind::kActive
                                 : sim::EngineKind::kScan;
  // Retired draw: this slot chose a threshold for an engine mode that no
  // longer exists. It is still consumed, so every replay seed printed
  // before keeps its window draw below.
  static_cast<void>(rng.below(4));
  // Sliding-window draw (appended last, same rule): half the instances
  // re-run their schedule through wl::apply_sliding_window with drain, so
  // the fuzzer covers randomized insert/delete interleavings and the
  // deletion repair protocol — for every app, each pinned against its
  // dynamic deletion oracle (DynamicBfs/DynamicSssp/DynamicComponents)
  // in run_instance.
  constexpr std::uint32_t kWindows[] = {0, 0, 1, 2};
  in.window = kWindows[rng.below(4)];
  return in;
}

std::vector<StreamEdge> make_edges(const Instance& in) {
  if (in.rmat) {
    wl::RmatParams p;
    // Smallest scale whose vertex space covers the instance.
    p.scale = 1;
    while ((1ull << p.scale) < in.vertices) ++p.scale;
    p.num_edges = in.edges;
    p.seed = in.seed;
    return wl::generate_rmat(p);
  }
  wl::SbmParams p;
  p.num_vertices = in.vertices;
  p.num_edges = in.edges;
  p.num_blocks = 8;
  p.seed = in.seed;
  return wl::generate_sbm(p);
}

void run_instance(const Instance& in) {
  std::vector<StreamEdge> edges = make_edges(in);
  // Components runs on undirected semantics: stream both directions.
  if (in.app == 2) edges = wl::symmetrize(edges);
  std::uint64_t max_vid = 0;
  for (const auto& e : edges) max_vid = std::max({max_vid, e.src, e.dst});
  const std::uint64_t n = std::max(in.vertices, max_vid + 1);

  wl::StreamSchedule sched =
      in.sampling == wl::SamplingKind::kSnowball
          ? wl::snowball_sampling(edges, n, in.increments, in.seed)
          : wl::edge_sampling(edges, in.increments, in.seed);
  const std::uint64_t source =
      in.sampling == wl::SamplingKind::kSnowball ? sched.seed_vertex : 0;
  // Instances with a window draw stream expirations too (drained, so a
  // randomized delete mix hits every increment past the window). All
  // three apps repair deletions through the monotone-raise framework.
  const bool windowed = in.window > 0;
  if (windowed) {
    sched = wl::apply_sliding_window(sched, in.window, /*drain=*/true);
  }

  sim::ChipConfig cfg;
  cfg.width = in.mesh_dim;
  cfg.height = in.mesh_dim;
  cfg.threads = in.threads;
  cfg.engine = in.engine;
  cfg.seed = in.seed;
  sim::Chip chip(cfg);
  graph::RpvoConfig rc;
  rc.edge_capacity = in.edge_capacity;
  graph::GraphProtocol proto(chip, rc);

  apps::StreamingBfs bfs(proto);
  apps::StreamingSssp sssp(proto);
  apps::StreamingComponents comps(proto);
  graph::GraphConfig gc;
  gc.num_vertices = n;
  if (in.app == 0) {
    bfs.install();
    gc.root_init = apps::StreamingBfs::initial_state();
  } else if (in.app == 1) {
    sssp.install();
    gc.root_init = apps::StreamingSssp::initial_state();
  } else {
    comps.install();
    gc.root_init = apps::StreamingComponents::initial_state();
  }
  graph::StreamingGraph g(proto, gc);
  if (in.app == 0) bfs.set_source(g, source);
  if (in.app == 1) sssp.set_source(g, source);
  if (in.app == 2) comps.seed_labels(g);

  // Interleaved inserts: every increment streams and settles before the
  // next arrives, exercising the incremental-update (not recompute) path.
  for (const auto& inc : sched.increments) {
    const auto report = g.stream_increment(inc, /*max_cycles=*/50'000'000);
    ASSERT_TRUE(chip.quiescent()) << "increment did not settle";
    ASSERT_GT(report.cycles, 0u);
  }

  // Oracle comparison over the full edge set (add_edges is op-aware, so a
  // windowed schedule leaves ref holding exactly the surviving edges).
  base::RefGraph ref(n);
  for (const auto& inc : sched.increments) ref.add_edges(inc);
  std::uint64_t mismatches = 0;
  if (in.app == 0) {
    const auto want = base::bfs_levels(ref, source);
    if (windowed) {
      // Deletion-oracle cross-check: the incrementally maintained
      // DynamicBfs, fed the same op stream, must agree with the
      // from-scratch BFS of the survivors before we trust either.
      base::DynamicBfs dyn(n, source);
      for (const auto& inc : sched.increments) dyn.apply_increment(inc);
      ASSERT_EQ(dyn.levels(), want) << "DynamicBfs diverged from recompute";
      ASSERT_GT(dyn.edges_deleted(), 0u) << "window produced no deletions";
    }
    for (std::uint64_t v = 0; v < n; ++v) {
      const rt::Word w = want[v] == base::kUnreached
                             ? apps::StreamingBfs::kUnreached
                             : want[v];
      if (bfs.level_of(g, v) != w) ++mismatches;
    }
  } else if (in.app == 1) {
    const auto want = base::sssp_distances(ref, source);
    if (windowed) {
      // Same cross-check for SSSP: DynamicSssp replays the op stream
      // increment by increment and must land on the survivors' Dijkstra.
      base::DynamicSssp dyn(n, source);
      for (const auto& inc : sched.increments) dyn.apply_increment(inc);
      ASSERT_EQ(dyn.distances(), want)
          << "DynamicSssp diverged from recompute";
      ASSERT_GT(dyn.edges_deleted(), 0u) << "window produced no deletions";
    }
    for (std::uint64_t v = 0; v < n; ++v) {
      const rt::Word w = want[v] == base::kUnreached
                             ? apps::StreamingSssp::kUnreached
                             : want[v];
      if (sssp.distance_of(g, v) != w) ++mismatches;
    }
  } else if (windowed) {
    // Windowed components can expire the two arcs of a symmetrized pair
    // in different increments, so the undirected union-find is not a
    // valid oracle mid-stream; use the directed deletion oracle, checked
    // against its own from-scratch recompute first.
    base::DynamicComponents dyn(n);
    for (const auto& inc : sched.increments) dyn.apply_increment(inc);
    ASSERT_EQ(dyn.labels(), dyn.recompute())
        << "DynamicComponents diverged from recompute";
    ASSERT_GT(dyn.edges_deleted(), 0u) << "window produced no deletions";
    const auto& want = dyn.labels();
    for (std::uint64_t v = 0; v < n; ++v) {
      if (comps.label_of(g, v) != want[v]) ++mismatches;
    }
  } else {
    const auto want = base::component_min_labels(ref);
    for (std::uint64_t v = 0; v < n; ++v) {
      if (comps.label_of(g, v) != want[v]) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(OracleFuzz, RandomInstancesMatchSequentialOracles) {
  constexpr int kInstances = 20;
  for (int i = 0; i < kInstances; ++i) {
    const std::uint64_t seed = 0xF00DBA5Eull + 7919ull * static_cast<std::uint64_t>(i);
    const Instance in = make_instance(seed);
    SCOPED_TRACE(in.describe());
    run_instance(in);
    if (::testing::Test::HasFailure()) {
      // Seed printed for replay (also carried by SCOPED_TRACE above).
      std::fprintf(stderr, "oracle_fuzz FAILURE — %s\n", in.describe().c_str());
      break;
    }
  }
}

}  // namespace
}  // namespace ccastream
