// The event-driven engine's headline guarantee: the active-set engine is
// cycle-for-cycle identical to the full-scan oracle — same cycle count,
// same complete ChipStats counter block, same energy, same activation
// trace, same per-vertex results — across the engine × thread count ×
// io_sides matrix, while visiting strictly fewer cells per
// cycle whenever the mesh is not saturated. Shallow FIFOs and a single
// ejection per cycle keep the mesh congested, where a set-maintenance bug
// (a cell activated late, a stale snapshot latch, a summary bit cleared
// under a live word) would surface as a divergent counter. Also here: a
// workload that swings between a saturated and a nearly idle mesh, the
// bitmaps of partitions whose blocks share a word, and the engine's
// resolution order.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "test_util.hpp"

namespace ccastream {
namespace {

using sim::EngineKind;

/// Minimal arena object used as a diffusion target.
class Blob final : public rt::ArenaObject {
 public:
  [[nodiscard]] std::size_t logical_bytes() const noexcept override { return 16; }
};

struct EngineResult {
  std::uint64_t cycles = 0;
  sim::ChipStats stats;
  double energy_pj = 0.0;
  std::vector<rt::Word> levels;  ///< Per-vertex BFS output.
  std::vector<sim::ActivationTrace::Sample> trace;
  std::uint64_t cell_visits = 0;  ///< Engine-dependent by design.
};

/// Everything that must be engine-invariant (cell_visits deliberately
/// excluded — it is the one number the engines are allowed to differ in).
void expect_equivalent(const EngineResult& active, const EngineResult& scan) {
  EXPECT_EQ(active.cycles, scan.cycles);
  EXPECT_EQ(active.stats, scan.stats);  // every ChipStats counter
  EXPECT_EQ(active.energy_pj, scan.energy_pj);
  EXPECT_EQ(active.levels, scan.levels);
  ASSERT_EQ(active.trace.size(), scan.trace.size());
  for (std::size_t i = 0; i < active.trace.size(); ++i) {
    EXPECT_EQ(active.trace[i].active, scan.trace[i].active) << "cycle " << i;
    EXPECT_EQ(active.trace[i].live, scan.trace[i].live) << "cycle " << i;
  }
}

EngineResult run_bfs(EngineKind engine, std::uint32_t threads,
                     std::uint8_t io_sides) {
  sim::ChipConfig cfg;
  cfg.width = 12;
  cfg.height = 12;
  cfg.fifo_depth = 2;
  cfg.ejections_per_cycle = 1;
  cfg.io_sides = io_sides;
  cfg.threads = threads;
  cfg.engine = engine;
  cfg.record_activation = true;
  cfg.seed = 99;
  sim::Chip chip(cfg);
  EXPECT_EQ(chip.engine(), engine);

  graph::GraphProtocol proto(chip);
  apps::StreamingBfs bfs(proto);
  bfs.install();
  graph::GraphConfig gc;
  gc.num_vertices = 240;
  gc.root_init = apps::StreamingBfs::initial_state();
  graph::StreamingGraph g(proto, gc);
  bfs.set_source(g, 0);
  const auto sched = wl::make_graphchallenge_like(240, 4'000,
                                                  wl::SamplingKind::kEdge,
                                                  /*increments=*/3, 99);
  for (const auto& inc : sched.increments) test::run_capped(g, inc);

  EngineResult r;
  r.cycles = chip.stats().cycles;
  r.stats = chip.stats();
  r.energy_pj = chip.energy_pj();
  for (std::uint64_t v = 0; v < 240; ++v) r.levels.push_back(bfs.level_of(g, v));
  r.trace = chip.activation().samples();
  r.cell_visits = chip.cell_visits();
  return r;
}

// The acceptance matrix: engine × {1, 2, 4} threads × {north/south,
// west/east} IO, every cell compared against the scan-serial oracle of its
// io_sides group.
TEST(EngineEquivalence, MatrixIsCycleIdenticalToScanOracle) {
  for (const std::uint8_t io_sides :
       {static_cast<std::uint8_t>(sim::kIoNorth | sim::kIoSouth),
        static_cast<std::uint8_t>(sim::kIoWest | sim::kIoEast)}) {
    SCOPED_TRACE("io_sides = " + std::to_string(io_sides));
    const EngineResult oracle = run_bfs(EngineKind::kScan, 1, io_sides);
    ASSERT_GT(oracle.cycles, 0u);
    ASSERT_GT(oracle.stats.stage_stalls, 0u) << "config failed to congest";

    for (const std::uint32_t threads : {1u, 2u, 4u}) {
      for (const EngineKind engine :
           {EngineKind::kScan, EngineKind::kActive}) {
        SCOPED_TRACE("threads = " + std::to_string(threads) +
                     ", engine = " + std::string(sim::to_string(engine)));
        const EngineResult r = run_bfs(engine, threads, io_sides);
        expect_equivalent(r, oracle);
        if (engine == EngineKind::kActive) {
          // The refactor's point: the same simulation, fewer visits.
          EXPECT_LT(r.cell_visits, oracle.cell_visits);
        } else {
          EXPECT_EQ(r.cell_visits, oracle.cell_visits)
              << "scan visits every cell every cycle, whatever the split";
        }
      }
    }
  }
}

// cell_visits is the host-cost currency, so it must not depend on thread
// timing: which cells a sweep visits follows only the sweeping
// partition's own program order (see ActiveSet::for_each). Repeated
// threaded runs whose bitmap words hold rows of several partitions must
// bill the same visits: on the 12x12 chip at 4 threads each block is one
// row, dealt round-robin, so every bitmap word holds rows of two to four
// partitions. The absolute count is pinned too: it rests on each
// partition's bitmap keeping the chip's global word alignment, which
// decides whether a bit set mid-sweep lies in a later word.
TEST(EngineEquivalence, ActiveVisitCountIsDeterministic) {
  const auto io_sides =
      static_cast<std::uint8_t>(sim::kIoNorth | sim::kIoSouth);
  const auto visits = [&] {
    return run_bfs(EngineKind::kActive, 4, io_sides).cell_visits;
  };
  const std::uint64_t first = visits();
  EXPECT_EQ(first, 184'800u);
  for (int rep = 0; rep < 3; ++rep) EXPECT_EQ(visits(), first);
}

// The large-mesh leg: the active engine's phases are 64-cell bitmap word
// sweeps over spans gated by a 4096-cell summary level, so meshes whose
// partition blocks start and end mid-word — and span several summary
// words — are where a masking or alignment bug would live, unreachable on
// the 12x12 matrix above. 120x120 (225 bitmap words, 4 summary words; a
// width that is not a multiple of 64, so threaded blocks start and end
// mid-word, where a 128-wide block always starts on a word) runs in the
// default suite; CCASTREAM_STRESS=1 upgrades the leg to the full 512x512
// acceptance mesh.
EngineResult run_large_bfs(EngineKind engine, std::uint32_t dim,
                           std::uint32_t threads) {
  sim::ChipConfig cfg;
  cfg.width = dim;
  cfg.height = dim;
  cfg.threads = threads;
  cfg.engine = engine;
  cfg.record_activation = true;
  cfg.seed = 7 + dim;
  sim::Chip chip(cfg);

  graph::GraphProtocol proto(chip);
  apps::StreamingBfs bfs(proto);
  bfs.install();
  const std::uint64_t n = dim == 120 ? 2'048 : 8'192;
  graph::GraphConfig gc;
  gc.num_vertices = n;
  gc.root_init = apps::StreamingBfs::initial_state();
  graph::StreamingGraph g(proto, gc);
  bfs.set_source(g, 0);
  const auto sched = wl::make_graphchallenge_like(n, 6 * n,
                                                  wl::SamplingKind::kEdge,
                                                  /*increments=*/1, cfg.seed);
  test::run_capped(g, sched.increments[0]);

  EngineResult r;
  r.cycles = chip.stats().cycles;
  r.stats = chip.stats();
  r.energy_pj = chip.energy_pj();
  for (std::uint64_t v = 0; v < n; ++v) r.levels.push_back(bfs.level_of(g, v));
  r.trace = chip.activation().samples();
  r.cell_visits = chip.cell_visits();
  return r;
}

TEST(EngineEquivalence, LargeMeshMatchesScanOracle) {
  const char* stress = std::getenv("CCASTREAM_STRESS");
  const std::uint32_t dim =
      (stress != nullptr && *stress != '\0' && *stress != '0') ? 512u : 120u;
  SCOPED_TRACE("mesh = " + std::to_string(dim) + "x" + std::to_string(dim));
  const EngineResult oracle = run_large_bfs(EngineKind::kScan, dim, 1);
  ASSERT_GT(oracle.cycles, 0u);

  // One serial span, and four partitions whose blocks start and end
  // mid-word.
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    const EngineResult r = run_large_bfs(EngineKind::kActive, dim, threads);
    expect_equivalent(r, oracle);
    EXPECT_LT(r.cell_visits, oracle.cell_visits);
  }
}

struct OscResult {
  sim::ChipStats stats;
  double energy_pj = 0.0;

  friend bool operator==(const OscResult&, const OscResult&) = default;
};

/// Alternates full-mesh bursts (every cell live, so whole summary words
/// fill) with three-cell trickles reached through the network (nearly
/// every word empties, and its summary bit must be cleared without ever
/// dropping a live one).
OscResult run_oscillation(EngineKind engine, std::uint32_t threads) {
  sim::ChipConfig cfg;
  cfg.width = 12;
  cfg.height = 12;
  cfg.fifo_depth = 2;
  cfg.ejections_per_cycle = 1;
  cfg.threads = threads;
  cfg.engine = engine;
  cfg.seed = 4242;
  sim::Chip chip(cfg);
  const rt::HandlerId spin = test::install_spin(chip);
  for (int round = 0; round < 3; ++round) {
    for (std::uint32_t cc = 0; cc < 144; ++cc) {
      test::seed_spinner(chip, spin, cc, 12);
    }
    test::run_capped(chip);
    for (std::uint32_t cc : {5u, 77u, 140u}) {
      test::seed_spinner_via(chip, spin, /*entry_cc=*/0, cc, 30);
    }
    test::run_capped(chip);
  }
  return {chip.stats(), chip.energy_pj()};
}

// Saturated ↔ nearly idle, serial and threaded: cycle-identical to the
// scan oracle however the frontier swings.
TEST(EngineEquivalence, OscillationIsCycleIdenticalToScanOracle) {
  const OscResult oracle = run_oscillation(EngineKind::kScan, 1);
  ASSERT_GT(oracle.stats.cycles, 0u);
  ASSERT_GT(oracle.stats.hops, 0u);
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    EXPECT_EQ(run_oscillation(EngineKind::kActive, threads), oracle);
  }
}

// Every partition's bitmap is exact after every cycle (ActiveSet::exact:
// summary bits match their words, no bit outside its span, the size is
// the popcount), over the words several partitions' blocks split too. On
// 12x12 at 4 threads k = 1, so partition p owns rows p, p + 4 and p + 8:
// word 0 (cells 0-63) holds rows of all four partitions, and each keeps
// its own copy of it. Spinners on every cell keep the first cycles
// pooled; the ones that enter at cell 0 cross blocks.
TEST(EngineEquivalence, SummaryIsExactWhereBlocksSplitWords) {
  for (const auto engine : {EngineKind::kActive, EngineKind::kScan}) {
    SCOPED_TRACE(std::string("engine = ") + std::string(sim::to_string(engine)));
    sim::ChipConfig cfg = test::small_chip_config(12);
    cfg.threads = 4;
    cfg.engine = engine;
    sim::Chip chip(cfg);
    for (std::uint32_t p = 0; p < 4; ++p) {
      ASSERT_EQ(chip.partition_layout().blocks(p),
                (std::vector<sim::CellSpan>{{12 * p, 12 * p + 12},
                                            {12 * (p + 4), 12 * (p + 5)},
                                            {12 * (p + 8), 12 * (p + 9)}}));
    }
    const rt::HandlerId spin = test::install_spin(chip);
    for (std::uint32_t cc = 0; cc < 144; ++cc) {
      test::seed_spinner(chip, spin, cc, 1 + cc % 7);
    }
    for (std::uint32_t cc : {50u, 100u, 140u}) {
      test::seed_spinner_via(chip, spin, /*entry_cc=*/0, cc, 9);
    }
    while (!chip.quiescent() && chip.now() < test::kRunCycleCap) {
      chip.step();
      for (std::uint32_t p = 0; p < 4; ++p) {
        const std::uint32_t first =
            chip.partition_layout().blocks(p).front().begin;
        ASSERT_TRUE(chip.active_set(first).exact())
            << "cycle " << chip.now() << ", partition " << p;
      }
    }
    EXPECT_TRUE(chip.quiescent());
    EXPECT_GT(chip.barrier_syncs(), 0u) << "no pooled cycle ran";
  }
}

// Host-side injection paths (inject_local seeding, inject_via network
// entry, io_enqueue) all feed the active set correctly: a diffusion seeded
// through each path must match the scan engine exactly. This is the
// step()-driven variant, so engine switching inside step() is covered too.
TEST(EngineEquivalence, AllInjectionPathsMatchUnderStepping) {
  auto run = [](EngineKind engine) {
    sim::ChipConfig cfg = test::small_chip_config();
    cfg.threads = 2;
    cfg.engine = engine;
    sim::Chip chip(cfg);
    const auto tgt = *chip.host_allocate(17, std::make_unique<Blob>());
    const rt::HandlerId fan = chip.handlers().register_handler(
        "fan", [tgt](rt::Context& ctx, const rt::Action& a) {
          if (a.args[0] > 0) {
            for (int i = 0; i < 3; ++i) {
              ctx.propagate(rt::make_action(a.handler, tgt, a.args[0] - 1));
            }
          }
        });
    chip.inject_local(rt::make_action(fan, tgt, rt::Word{4}));
    chip.inject_via(0, rt::make_action(fan, tgt, rt::Word{3}));
    chip.io_enqueue(rt::make_action(fan, tgt, rt::Word{2}));
    std::uint64_t steps = 0;
    while (!chip.quiescent() && steps < 100'000) {
      chip.step();
      ++steps;
    }
    EXPECT_TRUE(chip.quiescent());
    return std::pair{steps, chip.stats()};
  };
  const auto [scan_steps, scan_stats] = run(EngineKind::kScan);
  const auto [active_steps, active_stats] = run(EngineKind::kActive);
  EXPECT_EQ(active_steps, scan_steps);
  EXPECT_EQ(active_stats, scan_stats);
}

// CCASTREAM_ENGINE grammar: explicit config wins, parse round-trips, and
// garbage is rejected.
TEST(EngineEquivalence, EngineSpecParsesAndResolves) {
  EXPECT_EQ(sim::parse_engine("scan"), EngineKind::kScan);
  EXPECT_EQ(sim::parse_engine("active"), EngineKind::kActive);
  for (const char* bad : {"", "Active", "scan ", "fast", "event"}) {
    EXPECT_FALSE(sim::parse_engine(bad).has_value()) << bad;
  }
  EXPECT_EQ(sim::to_string(EngineKind::kScan), "scan");
  EXPECT_EQ(sim::to_string(EngineKind::kActive), "active");
  EXPECT_EQ(sim::resolve_engine(EngineKind::kActive), EngineKind::kActive);
  EXPECT_EQ(sim::resolve_engine(EngineKind::kScan), EngineKind::kScan);
}

// `active` is the default engine; the scan oracle stays one env var away,
// and an explicit config always wins over the environment.
TEST(EngineEquivalence, DefaultEngineResolvesToActive) {
  {
    const test::ScopedEnv env("CCASTREAM_ENGINE", nullptr);
    EXPECT_EQ(sim::resolve_engine({}), EngineKind::kActive);
  }
  {
    const test::ScopedEnv env("CCASTREAM_ENGINE", "scan");
    EXPECT_EQ(sim::resolve_engine({}), EngineKind::kScan);
    EXPECT_EQ(sim::resolve_engine(EngineKind::kActive), EngineKind::kActive);
  }
}

}  // namespace
}  // namespace ccastream
