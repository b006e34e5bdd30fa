// Property tests for the mesh partition layer (sim/partition.hpp): the
// block-cyclic rule must give every row exactly one owner and every
// partition at least one block, with blocks of k = max(1, H / 8P) rows
// dealt round-robin — the invariants the parallel engine's correctness
// (and the determinism suite) rests on. Also here: the worker count's
// resolution and clamp, and a throwing handler under the worker pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "test_util.hpp"

namespace ccastream {
namespace {

using sim::CellSpan;
using sim::PartitionLayout;

/// Checks the rule from its statement alone: P = clamp(target, 1, H),
/// k = max(1, floor(H / 8P)), and block b — rows [b*k, min((b+1)*k, H)) —
/// belongs to partition b mod P.
void expect_block_rule(std::uint32_t w, std::uint32_t h, std::uint32_t target) {
  const PartitionLayout layout(w, h, target);
  const std::uint32_t parts = std::clamp(target, 1u, h);
  ASSERT_EQ(layout.parts(), parts);
  const std::uint32_t k = std::max(1u, h / (8 * parts));

  std::vector<std::uint32_t> claims(h, 0);  // blocks covering each row
  for (std::uint32_t p = 0; p < parts; ++p) {
    const std::vector<CellSpan>& blocks = layout.blocks(p);
    ASSERT_FALSE(blocks.empty()) << "partition " << p << " owns no block";
    std::uint32_t prev_end = 0;
    for (const CellSpan& b : blocks) {
      ASSERT_EQ(b.begin % w, 0u) << "a block holds whole rows";
      ASSERT_EQ(b.end % w, 0u) << "a block holds whole rows";
      ASSERT_GE(b.begin, prev_end) << "blocks listed in ascending order";
      prev_end = b.end;
      const std::uint32_t first = b.begin / w;
      const std::uint32_t end = b.end / w;
      EXPECT_EQ(first % k, 0u) << "block starts at row " << first;
      EXPECT_EQ(first / k % parts, p) << "block " << first / k;
      EXPECT_EQ(end - first, std::min(k, h - first))
          << "k rows per block, fewer only in the mesh's last";
      for (std::uint32_t row = first; row < end; ++row) {
        ++claims[row];
        EXPECT_EQ(layout.row_owner(row), p) << "row " << row;
      }
    }
  }
  for (std::uint32_t row = 0; row < h; ++row) {
    EXPECT_EQ(claims[row], 1u) << "row " << row << " has not exactly one owner";
  }
  for (std::uint32_t cell = 0; cell < w * h; ++cell) {
    ASSERT_EQ(layout.owner(cell), layout.row_owner(cell / w)) << cell;
  }
}

// The grid covers P = 1, P > H/8 (one-row blocks), P = H (the clamp
// included), k > 1, and a last block shorter than k (71 rows, k = 2).
TEST(PartitionLayout, BlockRuleHoldsOverAGridOfMeshesAndParts) {
  for (const auto& [w, h] :
       {std::pair{8u, 8u}, {16u, 4u}, {5u, 7u}, {1u, 9u}, {9u, 1u}, {12u, 12u},
        {32u, 32u}, {3u, 71u}, {7u, 100u}, {128u, 128u}}) {
    for (const std::uint32_t parts :
         {0u, 1u, 2u, 3u, 4u, 7u, 16u, 100'000'000u}) {
      SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) +
                   " parts=" + std::to_string(parts));
      expect_block_rule(w, h, parts);
    }
  }
}

TEST(PartitionLayout, DealsBlocksRoundRobin) {
  // 71 rows over 4 partitions: k = 71 / 32 = 2, so 36 blocks, the last
  // one row 70 alone. Partition 3 owns blocks 3, 7, ..., 35.
  const PartitionLayout layout(3, 71, 4);
  const std::vector<CellSpan>& blocks = layout.blocks(3);
  ASSERT_EQ(blocks.size(), 9u);
  EXPECT_EQ(blocks.front(), (CellSpan{18, 24}));  // rows 6-7
  EXPECT_EQ(blocks[1], (CellSpan{42, 48}));       // rows 14-15
  EXPECT_EQ(blocks.back(), (CellSpan{210, 213}));  // row 70
  EXPECT_EQ(layout.owner(212), 3u);
  EXPECT_EQ(layout.owner(209), 2u);  // row 69: block 34
  // 128 rows over 4: k = 4, each partition holds 8 blocks spread over the
  // whole mesh.
  const PartitionLayout mesh(128, 128, 4);
  EXPECT_EQ(mesh.blocks(1).size(), 8u);
  EXPECT_EQ(mesh.blocks(1).front(), (CellSpan{4 * 128, 8 * 128}));
  EXPECT_EQ(mesh.blocks(1).back(), (CellSpan{116 * 128, 120 * 128}));
}

// The worker count (one worker per partition) resolves like every backend
// knob: an explicit request wins over CCASTREAM_THREADS, which wins over
// the serial default.
TEST(ResolveThreads, ExplicitRequestWinsOverEnvironment) {
  const test::ScopedEnv env("CCASTREAM_THREADS", "3");
  EXPECT_EQ(sim::resolve_threads(0), 3u);
  EXPECT_EQ(sim::resolve_threads(2), 2u);
  const test::ScopedEnv huge("CCASTREAM_THREADS", "5000");
  EXPECT_EQ(sim::resolve_threads(0), 4096u) << "clamped, not rejected";
}

TEST(ResolveThreads, RejectsMalformedEnvValues) {
  // Only a whole count of at least 1 parses; anything else runs serially
  // (with a one-shot warning) rather than a guessed worker count.
  for (const char* bad : {"4x", "abc", "0", "-3", ""}) {
    const test::ScopedEnv env("CCASTREAM_THREADS", bad);
    EXPECT_EQ(sim::resolve_threads(0), 1u) << "value '" << bad << "'";
  }
  const test::ScopedEnv unset("CCASTREAM_THREADS", nullptr);
  EXPECT_EQ(sim::resolve_threads(0), 1u);
}

// The chip end of the contract: the worker count clamps to the mesh
// height, and a skewed diffusion gives the same results on every count.
TEST(ChipPartition, WorkerClampIsResultInvariant) {
  sim::ChipConfig cfg = test::small_chip_config();  // 8x8 mesh
  cfg.threads = 3;
  sim::Chip three(cfg);
  EXPECT_EQ(three.partitions(), 3u);

  cfg.threads = 20;
  sim::Chip clamped(cfg);
  EXPECT_EQ(clamped.threads(), 8u) << "one row per worker at most";

  auto run = [](std::uint32_t threads) {
    sim::ChipConfig c = test::small_chip_config();
    c.threads = threads;
    sim::Chip chip(c);
    const rt::HandlerId fan = chip.handlers().register_handler(
        "fan", [](rt::Context& ctx, const rt::Action& a) {
          ctx.charge(3);
          if (a.args[0] == 0) return;
          // Skew the diffusion into the top-left quadrant.
          const std::uint32_t cc = ctx.cc();
          const auto c0 = ctx.geometry().coord_of(cc);
          const rt::Coord next{c0.x / 2, c0.y / 2};
          ctx.propagate(rt::make_action(
              a.handler,
              rt::GlobalAddress{ctx.geometry().index_of(next), 0},
              a.args[0] - 1));
        });
    for (std::uint32_t burst = 0; burst < 4; ++burst) {
      for (std::uint32_t cc = 0; cc < chip.geometry().cell_count(); cc += 3) {
        chip.inject_local(rt::make_action(fan, rt::GlobalAddress{cc, 0},
                                          rt::Word{6}));
      }
      chip.run_until_quiescent(200'000);  // one "increment"
    }
    return chip.stats();
  };
  const sim::ChipStats serial = run(1);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(8), serial);
}

// A throwing handler must surface as a fault on every engine — under the
// worker pool an escaping exception would strand the other partitions at
// the phase barrier (deadlock), and the fault count must stay identical to
// serial.
TEST(ChipPartition, ThrowingHandlerIsAFaultNotADeadlock) {
  auto run = [](std::uint32_t threads) {
    sim::ChipConfig cfg = test::small_chip_config();
    cfg.threads = threads;
    sim::Chip chip(cfg);
    const rt::HandlerId boom = chip.handlers().register_handler(
        "boom", [](rt::Context&, const rt::Action&) {
          throw std::runtime_error("boom");
        });
    chip.inject_local(rt::make_action(boom, rt::GlobalAddress{5, 0}));
    chip.run_until_quiescent(10'000);
    return chip.stats();
  };
  const sim::ChipStats serial = run(1);
  EXPECT_EQ(serial.faults, 1u);
  EXPECT_EQ(run(4), serial);
}

}  // namespace
}  // namespace ccastream
