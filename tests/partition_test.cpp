// Property tests for the mesh partition layer (sim/partition.hpp): the
// row stripes must cover each cell exactly once as contiguous spans, the
// spec grammar must round-trip, and load-adaptive rebalancing must produce
// valid, balanced splits from skewed histograms — all invariants the
// parallel engine's correctness (and the determinism suite) rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "test_util.hpp"

namespace ccastream {
namespace {

using sim::CellSpan;
using sim::PartitionLayout;
using sim::PartitionSpec;

/// The structural invariant behind everything: stripes are non-empty,
/// in-bounds and consecutive, so their spans tile the cell range
/// [0, width * height) in partition order; owner() agrees with span
/// membership.
void expect_valid(const PartitionLayout& layout) {
  const std::uint32_t w = layout.mesh_width();
  const std::uint32_t h = layout.mesh_height();
  ASSERT_GE(layout.parts(), 1u);
  const std::vector<std::uint32_t>& rows = layout.row_boundaries();
  ASSERT_EQ(rows.size(), layout.parts() + 1);
  EXPECT_EQ(rows.front(), 0u);
  EXPECT_EQ(rows.back(), h);

  std::uint32_t next = 0;  // the first cell no earlier span covered
  for (std::uint32_t p = 0; p < layout.parts(); ++p) {
    ASSERT_LT(rows[p], rows[p + 1]) << "empty stripe " << p;
    const CellSpan span = layout.span(p);
    EXPECT_EQ(span, (CellSpan{rows[p] * w, rows[p + 1] * w}));
    EXPECT_EQ(span.begin, next) << "gap or overlap before partition " << p;
    for (std::uint32_t cell = span.begin; cell < span.end; ++cell) {
      EXPECT_EQ(layout.owner(cell), p)
          << "owner() disagrees with span membership at cell " << cell;
    }
    next = span.end;
  }
  EXPECT_EQ(next, w * h) << "stripes stop short of the last row";

  // The layout's own self-check (what CCASTREAM_CHECK=full runs at every
  // barrier) must agree with this independent reimplementation.
  EXPECT_TRUE(layout.exact_cover());
}

TEST(PartitionSpec, ParsesEveryGrammarForm) {
  for (const auto& [text, rebalance] :
       {std::pair{"rows", false}, std::pair{"rows+rebalance", true}}) {
    SCOPED_TRACE(text);
    const auto spec = PartitionSpec::parse(text);
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->rebalance, rebalance);
    // to_string round-trips the canonical spelling.
    EXPECT_EQ(spec->to_string(), text);
    EXPECT_EQ(PartitionSpec::parse(spec->to_string()), *spec);
  }
  EXPECT_EQ(PartitionSpec{}.to_string(), "rows") << "the default spec";
}

TEST(PartitionSpec, RejectsGarbage) {
  for (const char* bad :
       {"", "stripes", "row", "rows+rebalanced", "rows+", "+rebalance",
        "rows +rebalance", "rebalance", "rows+rebalance+rebalance",
        // Column stripes and 2-D tiles: row stripes beat both on every
        // measured workload (see docs/TUNING.md).
        "cols", "tiles", "tiles:2x2", "cols+rebalance", "tiles+rebalance"}) {
    EXPECT_FALSE(PartitionSpec::parse(bad).has_value()) << bad;
  }
}

TEST(PartitionLayout, RowStripesCoverEveryCellOnce) {
  for (const auto& [w, h] : {std::pair{8u, 8u}, {16u, 4u}, {5u, 7u}, {1u, 9u},
                            {9u, 1u}, {32u, 32u}}) {
    for (const std::uint32_t parts : {0u, 1u, 2u, 3u, 4u, 7u, 16u,
                                      100'000'000u}) {
      SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h) + " parts=" +
                   std::to_string(parts));
      const auto layout = PartitionLayout::build(w, h, parts);
      expect_valid(layout);
      // Clamped to [1, height]: every worker owns at least one row.
      EXPECT_EQ(layout.parts(), std::clamp(parts, 1u, h));
    }
  }
}

TEST(PartitionLayout, UniformStripesSplitRowsByFloor) {
  // floor(height * s / parts): 10 rows over 4 stripes -> 2, 3, 2, 3 rows.
  const auto layout = PartitionLayout::build(6, 10, 4);
  EXPECT_EQ(layout.row_boundaries(),
            (std::vector<std::uint32_t>{0, 2, 5, 7, 10}));
  EXPECT_EQ(layout.span(1), (CellSpan{12, 30}));
}

TEST(BalancedBoundaries, SkewedHistogramMovesTheBoundaries) {
  // All load in bin 0 of 8 bins, 4 parts: the first band collapses to the
  // single hot bin and the rest split the idle tail.
  std::vector<std::uint64_t> bins(8, 0);
  bins[0] = 1000;
  const auto b = sim::balanced_boundaries(bins, 4);
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b[0], 0u);
  EXPECT_EQ(b[1], 1u) << "hot bin isolated in its own band";
  EXPECT_EQ(b[4], 8u);
  for (std::size_t s = 1; s < b.size(); ++s) {
    EXPECT_GT(b[s], b[s - 1]) << "every band keeps at least one bin";
  }
}

TEST(BalancedBoundaries, QuantileSplitIsBalanced) {
  // A spiky but clamp-free histogram: every band's load stays below the
  // ideal share plus one bin — the standard quantile-split bound.
  std::vector<std::uint64_t> bins = {1, 1, 100, 1, 1,  40, 1, 1,
                                     1, 9, 1,   1, 60, 1,  1, 30};
  const std::uint64_t total = std::accumulate(bins.begin(), bins.end(), 0ull);
  const std::uint64_t max_bin = *std::max_element(bins.begin(), bins.end());
  for (const std::uint32_t parts : {2u, 3u, 4u}) {
    SCOPED_TRACE("parts=" + std::to_string(parts));
    const auto b = sim::balanced_boundaries(bins, parts);
    for (std::uint32_t s = 0; s < parts; ++s) {
      const std::uint64_t band = std::accumulate(
          bins.begin() + b[s], bins.begin() + b[s + 1], 0ull);
      EXPECT_LE(band, total / parts + max_bin + 1);
    }
  }
}

TEST(BalancedBoundaries, ZeroLoadDegradesToUniform) {
  const std::vector<std::uint64_t> bins(12, 0);
  const auto b = sim::balanced_boundaries(bins, 4);
  EXPECT_EQ(b, (std::vector<std::uint32_t>{0, 3, 6, 9, 12}));
}

TEST(PartitionLayout, RebalanceIsValidDeterministicAndLoadAware) {
  const auto uniform = PartitionLayout::build(8, 8, 4);
  // Synthetic skew: the north-west corner is hot (as under north IO with
  // a west-heavy workload).
  std::vector<std::uint64_t> load(64, 1);
  for (std::uint32_t y = 0; y < 2; ++y) {
    for (std::uint32_t x = 0; x < 2; ++x) load[y * 8 + x] = 500;
  }
  const auto balanced = uniform.rebalanced(load);
  expect_valid(balanced);
  EXPECT_EQ(balanced.parts(), uniform.parts());
  // The two hot rows each land alone in a stripe.
  EXPECT_EQ(balanced.row_boundaries()[1], 1u);
  EXPECT_EQ(balanced.row_boundaries()[2], 2u);
  // Same histogram, same split: the rebalance schedule is a pure
  // function of the load (what keeps parallel runs deterministic).
  EXPECT_EQ(uniform.rebalanced(load), balanced);
  // Zero load snaps back to the uniform layout.
  EXPECT_EQ(balanced.rebalanced(std::vector<std::uint64_t>(64, 0)), uniform);
}

// Hysteresis: the ROADMAP's oscillating-workload scenario. A hot row that
// wobbles between two adjacent positions makes the plain quantile split
// flip the boundary every call even though neither split is better — the
// ping-pong a minimum-improvement threshold exists to stop.
TEST(PartitionLayout, RebalanceHysteresisStopsMarginalPingPong) {
  const auto uniform = PartitionLayout::build(8, 8, 2);  // 2 row stripes
  auto hot_row = [](std::uint32_t row) {
    std::vector<std::uint64_t> load(64, 1);
    for (std::uint32_t x = 0; x < 8; ++x) load[row * 8 + x] = 1000;
    return load;
  };
  // Settle on the split for a hot row 2 (boundary right behind it).
  const auto settled = uniform.rebalanced(hot_row(2));
  expect_valid(settled);
  ASSERT_NE(settled, uniform);

  // The hot row wobbles to 3: the quantile boundary wants to chase it even
  // though the hottest band barely changes (it contains the hot row either
  // way). Without hysteresis the layout flips…
  const auto chased = settled.rebalanced(hot_row(3), /*min_gain_pct=*/0);
  EXPECT_NE(chased, settled) << "test premise: plain quantiles ping-pong";
  // …and flips straight back on the next wobble: a genuine oscillation.
  EXPECT_EQ(chased.rebalanced(hot_row(2), 0), settled);

  // With the threshold the marginal move is rejected, in both directions.
  EXPECT_EQ(settled.rebalanced(hot_row(3), /*min_gain_pct=*/5), settled);
  EXPECT_EQ(chased.rebalanced(hot_row(2), /*min_gain_pct=*/5), chased);
}

// The threshold must not block genuine improvements: a load shift that
// clearly shrinks the hottest band still moves the boundaries.
TEST(PartitionLayout, RebalanceHysteresisStillAdoptsRealGains) {
  const auto uniform = PartitionLayout::build(8, 8, 2);
  std::vector<std::uint64_t> top_heavy(64, 10);
  for (std::uint32_t y = 0; y < 4; ++y) {
    for (std::uint32_t x = 0; x < 8; ++x) top_heavy[y * 8 + x] = 200;
  }
  // Uniform split: hottest band 4 × 8 × 200; balanced split isolates fewer
  // hot rows — far past any sane threshold.
  const auto balanced = uniform.rebalanced(top_heavy, /*min_gain_pct=*/5);
  expect_valid(balanced);
  EXPECT_NE(balanced, uniform);
  EXPECT_EQ(balanced, uniform.rebalanced(top_heavy, 0))
      << "threshold changes *whether* to move, never *where*";
}

// The worker count (one worker per stripe) resolves like every backend
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
// height, and rebalancing relayouts between increments without changing
// any result.
TEST(ChipPartition, WorkerClampAndRebalanceAreResultInvariant) {
  sim::ChipConfig cfg = test::small_chip_config();  // 8x8 mesh
  cfg.threads = 3;
  cfg.partition = *PartitionSpec::parse("rows");
  sim::Chip three(cfg);
  EXPECT_EQ(three.partitions(), 3u);

  cfg.threads = 20;
  sim::Chip clamped(cfg);
  EXPECT_EQ(clamped.threads(), 8u) << "one row per worker at most";

  // Identical skewed diffusions on rebalancing and non-rebalancing chips:
  // boundaries must move, results must not.
  auto run = [](bool rebalance) {
    sim::ChipConfig c = test::small_chip_config();
    c.threads = 4;
    c.partition = *PartitionSpec::parse(rebalance ? "rows+rebalance" : "rows");
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
    return std::pair{chip.stats(), chip.partition_rebalances()};
  };
  const auto [stats_plain, rebal_plain] = run(false);
  const auto [stats_rebal, rebal_count] = run(true);
  EXPECT_EQ(rebal_plain, 0u);
  EXPECT_GT(rebal_count, 0u) << "skewed load should trigger a re-split";
  EXPECT_EQ(stats_rebal, stats_plain)
      << "rebalancing must be cycle-for-cycle invisible in results";
}

// Chip-level hysteresis: a workload whose hot row oscillates between two
// mesh rows. Without a threshold the chip would re-split on five of its six
// bursts (the layout test above shows plain quantiles chasing the hot
// row); the chip's fixed 5% minimum improvement, plus the decayed load
// window, lets it re-split exactly once. Pinning 1 rather than "at most 1"
// keeps the premise that the rebalancer fires on this workload at all; as
// always, the results cannot tell the difference from fixed row stripes.
TEST(ChipPartition, RebalanceHysteresisDampensOscillation) {
  auto run = [](const char* partition) {
    sim::ChipConfig cfg = test::small_chip_config();  // 8x8
    cfg.threads = 2;
    cfg.partition = *PartitionSpec::parse(partition);
    sim::Chip chip(cfg);
    const rt::HandlerId burn = chip.handlers().register_handler(
        "burn", [](rt::Context& ctx, const rt::Action&) { ctx.charge(24); });
    for (std::uint32_t burst = 0; burst < 6; ++burst) {
      const std::uint32_t row = burst % 2 == 0 ? 2 : 3;  // the oscillation
      for (std::uint32_t x = 0; x < 8; ++x) {
        chip.inject_local(rt::make_action(
            burn, rt::GlobalAddress{row * 8 + x, 0}));
      }
      chip.run_until_quiescent(100'000);
    }
    return std::pair{chip.stats(), chip.partition_rebalances()};
  };
  const sim::ChipStats stats_plain = run("rows").first;
  const auto [stats_damped, damped_flips] = run("rows+rebalance");
  EXPECT_EQ(damped_flips, 1u) << "hysteresis must damp the ping-pong";
  EXPECT_EQ(stats_damped, stats_plain)
      << "the rebalance schedule must never change results";
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
