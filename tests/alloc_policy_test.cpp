// Unit + property tests: ghost allocation policies (paper Figure 5).
#include <gtest/gtest.h>

#include <set>

#include "runtime/alloc_policy.hpp"
#include "runtime/rng.hpp"

namespace ccastream::rt {
namespace {

TEST(AllocPolicy, Names) {
  EXPECT_EQ(to_string(AllocPolicyKind::kVicinity), "vicinity");
  EXPECT_EQ(to_string(AllocPolicyKind::kRandom), "random");
  EXPECT_EQ(to_string(AllocPolicyKind::kRoundRobin), "round-robin");
  EXPECT_EQ(to_string(AllocPolicyKind::kLocal), "local");
}

// Property sweep: every vicinity choice is within the radius, never the
// origin, and the whole ring is eventually covered.
struct VicinityCase {
  std::uint32_t mesh;
  std::uint32_t radius;
  std::uint32_t origin;
};

class VicinityProperty : public ::testing::TestWithParam<VicinityCase> {};

TEST_P(VicinityProperty, ChoicesWithinRadiusAndCoverRing) {
  const auto [dim, radius, origin] = GetParam();
  const MeshGeometry mesh(dim, dim);
  Xoshiro256 rng(origin * 7919 + radius);
  std::uint32_t cursor = 0;

  std::set<std::uint32_t> seen;
  for (int i = 0; i < 4000; ++i) {
    const std::uint32_t cc = choose_ghost_cell(AllocPolicyKind::kVicinity,
                                               radius, origin, mesh, rng, cursor);
    ASSERT_LT(cc, mesh.cell_count());
    ASSERT_NE(cc, origin);
    ASSERT_LE(mesh.hops(origin, cc), radius)
        << "ghost placed " << mesh.hops(origin, cc) << " hops away";
    seen.insert(cc);
  }
  // Count the true candidate set and require full coverage.
  std::uint32_t candidates = 0;
  for (std::uint32_t cc = 0; cc < mesh.cell_count(); ++cc) {
    const auto h = mesh.hops(origin, cc);
    if (h >= 1 && h <= radius) ++candidates;
  }
  EXPECT_EQ(seen.size(), candidates);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VicinityProperty,
    ::testing::Values(VicinityCase{8, 2, 0},        // corner
                      VicinityCase{8, 2, 27},       // interior
                      VicinityCase{8, 1, 7},        // corner, radius 1
                      VicinityCase{8, 3, 36},
                      VicinityCase{4, 2, 5},
                      VicinityCase{16, 2, 120},
                      VicinityCase{3, 2, 4},        // radius covers most of mesh
                      VicinityCase{32, 2, 32 * 16 + 16}));

TEST(Vicinity, DegenerateOneByOneMeshFallsBackToOrigin) {
  const MeshGeometry mesh(1, 1);
  Xoshiro256 rng(1);
  std::uint32_t cursor = 0;
  EXPECT_EQ(choose_ghost_cell(AllocPolicyKind::kVicinity, 2, 0, mesh, rng, cursor),
            0u);
}

TEST(Random, UniformOverChip) {
  const MeshGeometry mesh(8, 8);
  Xoshiro256 rng(3);
  std::uint32_t cursor = 0;
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 20000; ++i) {
    const auto cc =
        choose_ghost_cell(AllocPolicyKind::kRandom, 2, 0, mesh, rng, cursor);
    ASSERT_LT(cc, 64u);
    seen.insert(cc);
  }
  EXPECT_EQ(seen.size(), 64u);  // every cell eventually chosen
}

TEST(RoundRobin, CyclesThroughAllCellsFromOrigin) {
  // Per-origin rotation, anchored at the origin cell: origin 5 walks
  // 5, 6, ..., 15, 0, ..., 4 and wraps. (Keyed per cell — not one global
  // call-order cursor — so the parallel engine's scheduling cannot perturb
  // the sequence; anchoring spreads concurrent origins over the chip.)
  const MeshGeometry mesh(4, 4);
  Xoshiro256 rng(3);
  std::uint32_t cursor = 0;
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < 16; ++i) {
      EXPECT_EQ(choose_ghost_cell(AllocPolicyKind::kRoundRobin, 2, 5, mesh, rng,
                                  cursor),
                (5 + i) % 16);
    }
  }
}

TEST(RoundRobin, OriginsRotateIndependently) {
  const MeshGeometry mesh(4, 4);
  Xoshiro256 rng(3);
  std::uint32_t cursor3 = 0;
  std::uint32_t cursor9 = 0;
  const auto choose = [&](std::uint32_t origin, std::uint32_t& cursor) {
    return choose_ghost_cell(AllocPolicyKind::kRoundRobin, 2, origin, mesh, rng,
                             cursor);
  };
  // Interleaved calls from two origins never disturb each other's walk,
  // and distinct origins start at distinct cells.
  EXPECT_EQ(choose(3, cursor3), 3u);
  EXPECT_EQ(choose(9, cursor9), 9u);
  EXPECT_EQ(choose(3, cursor3), 4u);
  EXPECT_EQ(choose(9, cursor9), 10u);
}

TEST(Local, AlwaysOrigin) {
  const MeshGeometry mesh(4, 4);
  Xoshiro256 rng(3);
  std::uint32_t cursor = 0;
  for (std::uint32_t origin = 0; origin < 16; ++origin) {
    EXPECT_EQ(
        choose_ghost_cell(AllocPolicyKind::kLocal, 2, origin, mesh, rng, cursor),
        origin);
  }
}

}  // namespace
}  // namespace ccastream::rt
