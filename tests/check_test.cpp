// The checked-build subsystem (runtime/check.hpp):
//   * CheckLevel parsing and the config > CCASTREAM_CHECK > off resolution
//     order (the same ladder every backend knob uses), including the
//     garbage-env fallback;
//   * a chip resolves its level at construction and exposes it, so two
//     chips in one process can run at different levels;
//   * transparency — a full-level run of a real workload is
//     cycle-for-cycle and counter-for-counter identical to an unchecked
//     run, on both engines (the checks observe, never steer);
//   * teeth — corrupting the invariants the sweeps guard (the fifo_msgs
//     cached counter and the router-input latches in the chip's SoA block,
//     reached via Chip::cell_state(); the activity-bitmap membership flag
//     and its summary bit in either direction in the owning partition's
//     bitmap, reached via Chip::active_set()) turns the next cycle into a
//     diagnosed abort instead of silent divergence, under both engines
//     (both keep the bitmap).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "test_util.hpp"

namespace ccastream {
namespace {

using rt::CheckLevel;
using test::ScopedEnv;

TEST(CheckLevelResolution, ParsesKnownLevels) {
  EXPECT_EQ(rt::parse_check_level("off"), CheckLevel::off);
  EXPECT_EQ(rt::parse_check_level("cheap"), CheckLevel::cheap);
  EXPECT_EQ(rt::parse_check_level("full"), CheckLevel::full);
  EXPECT_EQ(rt::parse_check_level(""), std::nullopt);
  EXPECT_EQ(rt::parse_check_level("FULL"), std::nullopt);
  EXPECT_EQ(rt::parse_check_level("2"), std::nullopt);
}

TEST(CheckLevelResolution, RoundTripsToString) {
  EXPECT_EQ(rt::parse_check_level(rt::to_string(CheckLevel::off)),
            CheckLevel::off);
  EXPECT_EQ(rt::parse_check_level(rt::to_string(CheckLevel::cheap)),
            CheckLevel::cheap);
  EXPECT_EQ(rt::parse_check_level(rt::to_string(CheckLevel::full)),
            CheckLevel::full);
}

// Same ladder as resolve_engine / resolve_threads: explicit config
// beats the environment, the environment beats the default, garbage in the
// environment degrades to the default (off) rather than erroring.
TEST(CheckLevelResolution, ConfigBeatsEnvBeatsDefault) {
  {
    const ScopedEnv env("CCASTREAM_CHECK", nullptr);
    EXPECT_EQ(rt::resolve_check_level({}), CheckLevel::off);
    EXPECT_EQ(rt::resolve_check_level(CheckLevel::full), CheckLevel::full);
  }
  {
    const ScopedEnv env("CCASTREAM_CHECK", "full");
    EXPECT_EQ(rt::resolve_check_level({}), CheckLevel::full);
    // Explicit config always wins over the environment.
    EXPECT_EQ(rt::resolve_check_level(CheckLevel::cheap), CheckLevel::cheap);
    EXPECT_EQ(rt::resolve_check_level(CheckLevel::off), CheckLevel::off);
  }
  {
    const ScopedEnv env("CCASTREAM_CHECK", "cheap");
    EXPECT_EQ(rt::resolve_check_level({}), CheckLevel::cheap);
  }
  {
    const ScopedEnv env("CCASTREAM_CHECK", "paranoid");
    EXPECT_EQ(rt::resolve_check_level({}), CheckLevel::off);
  }
}

TEST(CheckLevelResolution, ChipResolvesAtConstruction) {
  {
    const ScopedEnv env("CCASTREAM_CHECK", nullptr);
    const sim::Chip chip(test::small_chip_config(4));
    EXPECT_EQ(chip.check_level(), CheckLevel::off);
  }
  {
    const ScopedEnv env("CCASTREAM_CHECK", "full");
    const sim::Chip from_env(test::small_chip_config(4));
    EXPECT_EQ(from_env.check_level(), CheckLevel::full);

    auto cfg = test::small_chip_config(4);
    cfg.check_level = CheckLevel::cheap;
    const sim::Chip from_config(cfg);
    EXPECT_EQ(from_config.check_level(), CheckLevel::cheap);
  }
}

// ---------------------------------------------------------------------------
// The behavioural tests drive the self-spinning handler (test_util.hpp),
// which holds cells live for a chosen number of rounds and exercises
// routing, IO, staging, and the active set.

using test::install_spin;
using test::seed_spinner;

/// Runs the reference workload at `level` on `engine` and returns the final
/// counters. The workload lights a diagonal of cells with staggered
/// lifetimes so the run exercises activation, deactivation, and the
/// membership structures the full sweep audits.
sim::ChipStats run_workload(CheckLevel level, sim::EngineKind engine) {
  auto cfg = test::small_chip_config(8);
  cfg.check_level = level;
  cfg.engine = engine;
  cfg.threads = 1;
  sim::Chip chip(cfg);
  const auto spin = install_spin(chip);
  for (std::uint32_t i = 0; i < 8; ++i) {
    seed_spinner(chip, spin, i * 8 + i, 4 + i);
  }
  chip.run_until_quiescent();
  return chip.stats();
}

// The checks must be pure observers: a fully-checked run is identical to an
// unchecked run in every counter, on both engines. (This is also the test
// that actually *executes* the full barrier sweep on a live workload.)
TEST(CheckedRun, FullLevelIsTransparent) {
  for (const auto engine : {sim::EngineKind::kActive, sim::EngineKind::kScan}) {
    const auto unchecked = run_workload(CheckLevel::off, engine);
    const auto checked = run_workload(CheckLevel::full, engine);
    EXPECT_EQ(checked.cycles, unchecked.cycles);
    EXPECT_EQ(checked.actions_created, unchecked.actions_created);
    EXPECT_EQ(checked.actions_executed, unchecked.actions_executed);
    EXPECT_EQ(checked.instructions, unchecked.instructions);
    EXPECT_EQ(checked.messages_staged, unchecked.messages_staged);
    EXPECT_EQ(checked.hops, unchecked.hops);
    EXPECT_EQ(checked.deliveries, unchecked.deliveries);
    EXPECT_EQ(checked.io_injections, unchecked.io_injections);
    EXPECT_EQ(checked.allocations, unchecked.allocations);
    EXPECT_EQ(checked.faults, unchecked.faults);
  }
}

// ---------------------------------------------------------------------------
// Teeth: seed a corruption the sweeps are specified to catch and pin the
// diagnosed abort. Chips are serial single-partition so the death-test
// child re-executes deterministically without worker threads.

sim::ChipConfig checked_serial_config(CheckLevel level) {
  auto cfg = test::small_chip_config(4);
  cfg.check_level = level;
  cfg.threads = 1;
  return cfg;
}

using CheckDeathTest = ::testing::Test;

// A fifo_msgs counter that drifts from real FIFO occupancy is exactly the
// corruption the cached-counter audit exists for: the full sweep catches
// it at the next cycle barrier even when no helper touches the cell again.
TEST(CheckDeathTest, CorruptedFifoCounterDiesAtBarrier) {
  sim::Chip chip(checked_serial_config(CheckLevel::full));
  chip.step();
  chip.cell_state().fifo_msgs_ref(5) += 1;
  EXPECT_DEATH(chip.step(), "CCA_CHECK failed: c.fifo_msgs");
}

// At level cheap the same drift is caught earlier — by the mutation helper
// the next time traffic touches the cell (here: the IO delivery path).
TEST(CheckDeathTest, CorruptedFifoCounterDiesInMutationHelper) {
  sim::Chip chip(checked_serial_config(CheckLevel::cheap));
  const auto spin = install_spin(chip);
  chip.cell_state().fifo_msgs_ref(5) += 1;
  seed_spinner(chip, spin, 5, 1);
  EXPECT_DEATH(chip.run_until_quiescent(), "CCA_CHECK failed");
}

// Membership corruption: a cleared flag on a cell that still holds work
// breaks contains == has_work(), the invariant every active sweep trusts
// when it skips cells and quiescent() reads under both engines. (A flag
// set on an idle cell would test something else: COMPUTE clears the flag
// of any cell it visits that has no work.)
TEST(CheckDeathTest, CorruptedActiveFlagDiesAtBarrier) {
  for (const auto engine : {sim::EngineKind::kActive, sim::EngineKind::kScan}) {
    SCOPED_TRACE(std::string("engine = ") + std::string(sim::to_string(engine)));
    auto cfg = checked_serial_config(CheckLevel::full);
    cfg.engine = engine;
    sim::Chip chip(cfg);
    const auto spin = install_spin(chip);
    seed_spinner(chip, spin, 7, 50);
    chip.step();
    ASSERT_TRUE(chip.active_set(7).contains(7));
    chip.active_set(7).corrupt_active_flag(7, false);
    EXPECT_DEATH(chip.step(), "CCA_CHECK failed: st.active.contains");
  }
}

// Summary corruption: a clear summary bit over a live word makes every
// active sweep skip that word's cells unread — the live cell above would
// simply stop running. The barrier sweep's summary audit catches it.
TEST(CheckDeathTest, ClearedSummaryBitDiesAtBarrier) {
  for (const auto engine : {sim::EngineKind::kActive, sim::EngineKind::kScan}) {
    SCOPED_TRACE(std::string("engine = ") + std::string(sim::to_string(engine)));
    auto cfg = checked_serial_config(CheckLevel::full);
    cfg.engine = engine;
    sim::Chip chip(cfg);
    const auto spin = install_spin(chip);
    seed_spinner(chip, spin, 7, 50);
    chip.step();
    ASSERT_TRUE(chip.active_set(7).summary_bit(7));
    chip.active_set(7).corrupt_summary_flag(7, false);
    EXPECT_DEATH(chip.step(), "CCA_CHECK failed: st.active.exact");
  }
}

// The other direction: a summary bit left set over an empty word. A
// bitmap clears a summary bit only as a clear empties its word, so nothing
// in the cycle clears this one; the audit, which holds the summary exact,
// catches it.
TEST(CheckDeathTest, StaleSummaryBitDiesAtBarrier) {
  for (const auto engine : {sim::EngineKind::kActive, sim::EngineKind::kScan}) {
    SCOPED_TRACE(std::string("engine = ") + std::string(sim::to_string(engine)));
    auto cfg = checked_serial_config(CheckLevel::full);
    cfg.engine = engine;
    sim::Chip chip(cfg);
    chip.step();
    ASSERT_FALSE(chip.active_set(7).summary_bit(7));
    chip.active_set(7).corrupt_summary_flag(7, true);
    EXPECT_DEATH(chip.step(), "CCA_CHECK failed: st.active.exact");
  }
}

// Latch corruption: ROUTE reads a cell's latches as its phase-start
// router sizes, and an idle cell is latched by neither engine (COMPUTE
// latches only the cells it leaves live or empties), so a non-zero latch
// on one would stand in every later ROUTE's one-hop rule and in its
// neighbours' room and occupancy reads.
TEST(CheckDeathTest, CorruptedLatchDiesAtBarrier) {
  for (const auto engine : {sim::EngineKind::kActive, sim::EngineKind::kScan}) {
    SCOPED_TRACE(std::string("engine = ") + std::string(sim::to_string(engine)));
    auto cfg = checked_serial_config(CheckLevel::full);
    cfg.engine = engine;
    sim::Chip chip(cfg);
    const auto spin = install_spin(chip);
    seed_spinner(chip, spin, 7, 50);
    chip.step();
    ASSERT_FALSE(chip.active_set(5).contains(5));
    chip.cell_state().snapshot(5)[2] = 1;
    EXPECT_DEATH(chip.step(), "CCA_CHECK failed: soa_.snapshot");
  }
}

// Level off must not die: the same corruptions are (deliberately) ignored,
// which is what keeps the default path zero-overhead. The counter is
// repaired before any helper would trip the debug assert in idle().
TEST(CheckDeathTest, LevelOffIgnoresCorruption) {
#ifndef NDEBUG
  GTEST_SKIP() << "debug builds keep the assert in ComputeCell::idle() live";
#endif
  sim::Chip chip(checked_serial_config(CheckLevel::off));
  chip.step();
  chip.cell_state().fifo_msgs_ref(5) += 1;
  chip.step();
  chip.cell_state().fifo_msgs_ref(5) -= 1;
  SUCCEED();
}

}  // namespace
}  // namespace ccastream
