// Stress/scale sweep: mesh sizes {8x8, 32x32, 64x64} crossed with IO-side
// configurations, each streaming an SBM workload through BFS and
// verifying against the sequential oracle. Heavyweight by design: the
// suite is registered with ctest label `slow` and every test GTEST_SKIPs
// unless CCASTREAM_STRESS=1, so the default `ctest` run stays fast while
// CI's stress step (and `ctest -L slow` locally) exercises the full sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>

#include "test_util.hpp"

namespace ccastream {
namespace {

bool stress_enabled() {
  const char* v = std::getenv("CCASTREAM_STRESS");
  return v != nullptr && *v != '\0' && *v != '0';
}

using Case = std::tuple<std::uint32_t /*mesh*/, std::uint8_t /*io_sides*/>;

class StressScale : public ::testing::TestWithParam<Case> {};

TEST_P(StressScale, StreamingBfsSettlesAndMatchesOracle) {
  if (!stress_enabled()) {
    GTEST_SKIP() << "set CCASTREAM_STRESS=1 to run the stress/scale sweep";
  }
  const auto [dim, io_sides] = GetParam();

  sim::ChipConfig cfg;
  cfg.width = dim;
  cfg.height = dim;
  cfg.io_sides = io_sides;
  cfg.seed = 0x57AE55ull + dim;
  // threads left at 0: honours CCASTREAM_THREADS, so the CI thread matrix
  // stresses both engines with the same sweep (at 1 thread they collapse
  // to a single partition, which is exactly the serial baseline the
  // determinism suite pins against).
  sim::Chip chip(cfg);
  graph::GraphProtocol proto(chip);
  apps::StreamingBfs bfs(proto);
  bfs.install();

  // Scale the workload with the mesh so big chips do proportionally big
  // work: ~2 vertices per cell, average degree 6.
  const std::uint64_t n = 2ull * dim * dim;
  const std::uint64_t m = 6 * n;
  graph::GraphConfig gc;
  gc.num_vertices = n;
  gc.root_init = apps::StreamingBfs::initial_state();
  graph::StreamingGraph g(proto, gc);
  bfs.set_source(g, 0);

  const auto sched = wl::make_graphchallenge_like(n, m, wl::SamplingKind::kEdge,
                                                  /*increments=*/3, cfg.seed);
  for (const auto& inc : sched.increments) {
    g.stream_increment(inc, /*max_cycles=*/200'000'000);
    ASSERT_TRUE(chip.quiescent()) << "increment failed to settle on " << dim
                                  << "x" << dim;
  }

  base::RefGraph ref(n);
  for (const auto& inc : sched.increments) ref.add_edges(inc);
  const auto want = base::bfs_levels(ref, 0);
  std::uint64_t mismatches = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    const rt::Word w = want[v] == base::kUnreached
                           ? apps::StreamingBfs::kUnreached
                           : want[v];
    if (bfs.level_of(g, v) != w) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(chip.stats().io_injections, 0u);
}

// Million-cell smoke: a 1024x1024 chip (2^20 cells) must be constructible
// and usable at a bounded footprint. Two distinct memory properties are
// pinned (see sim/cell_soa.hpp and docs/ARCHITECTURE.md "Memory layout"):
//
//   1. Construction is cheap: the SoA slab holds about 150 B per cell and
//      no message storage (messages sit in per-row slot pools that grow
//      with traffic), so a freshly built million-cell chip is a few
//      hundred MiB resident (the cold ComputeCell array dominates).
//   2. Even after a workload whose cross-mesh routing sends messages all
//      over the chip (YX paths average ~2/3 of the mesh diameter, so
//      in-flight messages take slots in the pools of every row they
//      cross), the total footprint stays near ~2 KiB/cell — well under
//      the pre-SoA layout's ~5.5 KiB/cell (BENCH_scale.json baseline),
//      which per-cell heap FIFOs paid at construction time for every
//      cell.
std::uint64_t vm_hwm_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kb)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kb;
}

TEST(StressMillionCell, SparseBfsOnMillionCellMeshStaysLean) {
  if (!stress_enabled()) {
    GTEST_SKIP() << "set CCASTREAM_STRESS=1 to run the stress/scale sweep";
  }
  sim::ChipConfig cfg;
  cfg.width = 1024;
  cfg.height = 1024;
  cfg.seed = 0x57AE55ull + 1024;
  sim::Chip chip(cfg);
  ASSERT_EQ(chip.cell_state().cell_count(), 1u << 20);
  const std::uint64_t rss_after_ctor = vm_hwm_kb();
  if (rss_after_ctor != 0) {
    // Property 1: a fresh chip holds no message storage.
    EXPECT_LT(rss_after_ctor, 600'000u)
        << "million-cell chip construction paged in " << rss_after_ctor
        << " KiB";
  }

  // A deliberately small graph: the point is the mesh scale, not the load.
  graph::GraphProtocol proto(chip);
  apps::StreamingBfs bfs(proto);
  bfs.install();
  const std::uint64_t n = 2048;
  graph::GraphConfig gc;
  gc.num_vertices = n;
  gc.root_init = apps::StreamingBfs::initial_state();
  graph::StreamingGraph g(proto, gc);
  bfs.set_source(g, 0);

  const auto sched = wl::make_graphchallenge_like(n, 6 * n,
                                                  wl::SamplingKind::kEdge,
                                                  /*increments=*/1, cfg.seed);
  g.stream_increment(sched.increments[0], /*max_cycles=*/200'000'000);
  ASSERT_TRUE(chip.quiescent());

  base::RefGraph ref(n);
  ref.add_edges(sched.increments[0]);
  const auto want = base::bfs_levels(ref, 0);
  std::uint64_t mismatches = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    const rt::Word w = want[v] == base::kUnreached
                           ? apps::StreamingBfs::kUnreached
                           : want[v];
    if (bfs.level_of(g, v) != w) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);

  // Property 2: ~2 KiB/cell after traffic, vs the pre-SoA ~5.5 KiB/cell.
  // Generous bound — this is a smoke test, not a perf gate; the calibrated
  // gates live in bench_mesh_scale.
  const std::uint64_t rss = vm_hwm_kb();
  if (rss != 0) {
    EXPECT_LT(rss, 3'500'000u)
        << "million-cell run reached " << rss
        << " KiB resident — over ~3.4 KiB/cell, approaching the pre-SoA "
           "per-cell-container footprint";
  }
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto [dim, io_sides] = info.param;
  std::string name = "Mesh" + std::to_string(dim) + "x" + std::to_string(dim);
  name += "_Io";
  if (io_sides & sim::kIoNorth) name += "N";
  if (io_sides & sim::kIoSouth) name += "S";
  if (io_sides & sim::kIoWest) name += "W";
  if (io_sides & sim::kIoEast) name += "E";
  return name;
}

// 9 cases.
INSTANTIATE_TEST_SUITE_P(
    Sweep, StressScale,
    ::testing::Combine(
        ::testing::Values(8u, 32u, 64u),
        ::testing::Values(
            static_cast<std::uint8_t>(sim::kIoNorth | sim::kIoSouth),
            static_cast<std::uint8_t>(sim::kIoWest | sim::kIoEast),
            static_cast<std::uint8_t>(sim::kIoNorth | sim::kIoSouth |
                                      sim::kIoWest | sim::kIoEast))),
    case_name);

}  // namespace
}  // namespace ccastream
