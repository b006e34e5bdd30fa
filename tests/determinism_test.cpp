// The parallel engine's headline guarantee: a run is cycle-for-cycle
// identical for every thread count, that is for every block-cyclic mesh
// partition.
// BFS and SSSP stream an SBM graph in increments on 1-, 2-, and 4-thread
// chips; final cycle count, the full ChipStats counter block, total energy,
// and every per-vertex result must match the serial engine exactly.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "test_util.hpp"

namespace ccastream {
namespace {

/// Minimal arena object used as a diffusion target.
class Blob final : public rt::ArenaObject {
 public:
  [[nodiscard]] std::size_t logical_bytes() const noexcept override { return 16; }
};

constexpr std::uint64_t kVertices = 800;
constexpr std::uint64_t kEdges = 12'000;
constexpr std::uint64_t kSeed = 2024;

struct RunResult {
  std::uint64_t cycles = 0;
  sim::ChipStats stats;
  double energy_pj = 0.0;
  std::vector<rt::Word> results;  ///< Per-vertex app output.

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

enum class App { kBfs, kSssp };

RunResult run_app(App app, std::uint32_t threads) {
  sim::ChipConfig cfg;
  cfg.width = 16;
  cfg.height = 16;
  cfg.threads = threads;
  cfg.seed = kSeed;
  sim::Chip chip(cfg);
  EXPECT_EQ(chip.threads(), threads);

  graph::GraphProtocol proto(chip);
  apps::StreamingBfs bfs(proto);
  apps::StreamingSssp sssp(proto);
  graph::GraphConfig gc;
  gc.num_vertices = kVertices;
  if (app == App::kBfs) {
    bfs.install();
    gc.root_init = apps::StreamingBfs::initial_state();
  } else {
    sssp.install();
    gc.root_init = apps::StreamingSssp::initial_state();
  }
  graph::StreamingGraph g(proto, gc);
  if (app == App::kBfs) {
    bfs.set_source(g, 0);
  } else {
    sssp.set_source(g, 0);
  }

  const auto sched = wl::make_graphchallenge_like(kVertices, kEdges,
                                                  wl::SamplingKind::kEdge,
                                                  /*increments=*/4, kSeed);
  for (const auto& inc : sched.increments) test::run_capped(g, inc);

  RunResult r;
  r.cycles = chip.stats().cycles;
  r.stats = chip.stats();
  r.energy_pj = chip.energy_pj();
  r.results.reserve(kVertices);
  for (std::uint64_t v = 0; v < kVertices; ++v) {
    r.results.push_back(app == App::kBfs ? bfs.level_of(g, v)
                                         : sssp.distance_of(g, v));
  }
  return r;
}

class Determinism : public ::testing::TestWithParam<App> {};

TEST_P(Determinism, ParallelRunsAreCycleIdenticalToSerial) {
  const RunResult serial = run_app(GetParam(), 1);
  // The serial run did real work (the comparison is not vacuous).
  ASSERT_GT(serial.cycles, 0u);
  ASSERT_GT(serial.stats.hops, 0u);
  ASSERT_GT(serial.energy_pj, 0.0);

  for (const std::uint32_t threads : {2u, 4u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    const RunResult parallel = run_app(GetParam(), threads);
    EXPECT_EQ(parallel.cycles, serial.cycles);
    EXPECT_EQ(parallel.stats, serial.stats);  // every ChipStats counter
    EXPECT_EQ(parallel.energy_pj, serial.energy_pj);
    EXPECT_EQ(parallel.results, serial.results);
  }
}

INSTANTIATE_TEST_SUITE_P(BfsAndSssp, Determinism,
                         ::testing::Values(App::kBfs, App::kSssp),
                         [](const auto& info) {
                           return info.param == App::kBfs ? "Bfs" : "Sssp";
                         });

// The partition matrix: 2 and 4 workers against the serial run. A
// west/east-IO configuration rides along because it puts every IO cell on
// the rows of its border columns, so its injection legs run along the rows
// and its north/south legs cross block boundaries. Shallow FIFOs + single
// ejection keep the mesh congested, where order-dependence would hide.
struct MatrixResult {
  sim::ChipStats stats;
  double energy_pj = 0.0;
  std::vector<rt::Word> levels;
  friend bool operator==(const MatrixResult&, const MatrixResult&) = default;
};

TEST(Determinism, PartitionMatrixIsCycleIdenticalToSerial) {
  auto run = [](std::uint8_t io_sides, std::uint32_t threads) {
    sim::ChipConfig cfg;
    cfg.width = 12;
    cfg.height = 12;
    cfg.fifo_depth = 2;
    cfg.ejections_per_cycle = 1;
    cfg.io_sides = io_sides;
    cfg.threads = threads;
    cfg.seed = 99;
    sim::Chip chip(cfg);
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
    MatrixResult r;
    r.stats = chip.stats();
    r.energy_pj = chip.energy_pj();
    for (std::uint64_t v = 0; v < 240; ++v) r.levels.push_back(bfs.level_of(g, v));
    return r;
  };

  for (const std::uint8_t io_sides :
       {static_cast<std::uint8_t>(sim::kIoNorth | sim::kIoSouth),
        static_cast<std::uint8_t>(sim::kIoWest | sim::kIoEast)}) {
    SCOPED_TRACE("io_sides = " + std::to_string(io_sides));
    const MatrixResult serial = run(io_sides, 1);
    ASSERT_GT(serial.stats.stage_stalls, 0u) << "config failed to congest";
    for (const std::uint32_t threads : {2u, 4u}) {
      SCOPED_TRACE("threads = " + std::to_string(threads));
      EXPECT_EQ(run(io_sides, threads), serial);
    }
  }
}

// Deletion workloads go through a different protocol path than inserts
// (S-D delete phase, host-seeded unsettle waves, forced resettle
// diffusion), so cycle-identity is re-proven here on a sliding-window
// schedule whose drained tail is pure deletions — for every app the
// monotone-raise repair framework instantiates (BFS, SSSP, components):
// every engine and thread count must land on the
// identical counter block, energy, and per-vertex results as the serial
// scan run. The 12x12 mesh keeps more cells live than the sparse serial
// threshold (32 per partition) for part of the run, so every multi-thread
// leg also runs pooled cycles and their barriers.
enum class WindowedApp { kBfs, kSssp, kComponents };

TEST(Determinism, SlidingWindowDeletionsAreCycleIdenticalToSerial) {
  auto run = [](WindowedApp app, sim::EngineKind engine,
                std::uint32_t threads) {
    sim::ChipConfig cfg;
    cfg.width = 12;
    cfg.height = 12;
    cfg.threads = threads;
    cfg.engine = engine;
    cfg.seed = 404;
    sim::Chip chip(cfg);
    graph::GraphProtocol proto(chip);
    apps::StreamingBfs bfs(proto);
    apps::StreamingSssp sssp(proto);
    apps::StreamingComponents comps(proto);
    graph::GraphConfig gc;
    gc.num_vertices = 200;
    switch (app) {
      case WindowedApp::kBfs:
        bfs.install();
        gc.root_init = apps::StreamingBfs::initial_state();
        break;
      case WindowedApp::kSssp:
        sssp.install();
        gc.root_init = apps::StreamingSssp::initial_state();
        break;
      case WindowedApp::kComponents:
        comps.install();
        gc.root_init = apps::StreamingComponents::initial_state();
        break;
    }
    graph::StreamingGraph g(proto, gc);
    switch (app) {
      case WindowedApp::kBfs: bfs.set_source(g, 0); break;
      case WindowedApp::kSssp: sssp.set_source(g, 0); break;
      case WindowedApp::kComponents: comps.seed_labels(g); break;
    }
    auto sched = wl::make_graphchallenge_like(200, 3'000,
                                              wl::SamplingKind::kEdge,
                                              /*increments=*/5, 404);
    sched = wl::apply_sliding_window(sched, /*window=*/2, /*drain=*/true);
    std::uint64_t deletes = 0;
    for (const auto& inc : sched.increments) {
      deletes += test::run_capped(g, inc).deletes;
    }
    EXPECT_GT(deletes, 0u) << "window produced no deletions";
    if (threads > 1) {
      EXPECT_GT(chip.barrier_syncs(), 0u) << "no pooled cycle ran";
    }
    MatrixResult r;
    r.stats = chip.stats();
    r.energy_pj = chip.energy_pj();
    for (std::uint64_t v = 0; v < 200; ++v) {
      switch (app) {
        case WindowedApp::kBfs: r.levels.push_back(bfs.level_of(g, v)); break;
        case WindowedApp::kSssp:
          r.levels.push_back(sssp.distance_of(g, v));
          break;
        case WindowedApp::kComponents:
          r.levels.push_back(comps.label_of(g, v));
          break;
      }
    }
    return r;
  };

  for (const auto& [app, name] :
       {std::pair{WindowedApp::kBfs, "bfs"}, {WindowedApp::kSssp, "sssp"},
        {WindowedApp::kComponents, "components"}}) {
    SCOPED_TRACE(std::string("app = ") + name);
    const MatrixResult serial = run(app, sim::EngineKind::kScan, 1);
    // The drained schedule ends with every edge deleted, so the comparison
    // covers full invalidation cascades: only the source survives for
    // BFS/SSSP, and every component label collapses back to its own id.
    if (app == WindowedApp::kComponents) {
      for (std::uint64_t v = 0; v < 200; ++v) {
        ASSERT_EQ(serial.levels[v], v) << "drained label not self at " << v;
      }
    } else {
      ASSERT_EQ(serial.levels[0], 0u);
      for (std::uint64_t v = 1; v < 200; ++v) {
        ASSERT_EQ(serial.levels[v], apps::StreamingBfs::kUnreached)
            << "drained graph still reaches vertex " << v;
      }
    }
    for (const sim::EngineKind engine :
         {sim::EngineKind::kScan, sim::EngineKind::kActive}) {
      for (const std::uint32_t threads : {2u, 4u}) {
        SCOPED_TRACE(std::string("engine = ") +
                     std::string(sim::to_string(engine)) +
                     ", threads = " + std::to_string(threads));
        EXPECT_EQ(run(app, engine, threads), serial);
      }
    }
  }
}

// Cost pin for the three monotone apps. Every other check compares
// backends with each other, or results with oracles, so a changed charge()
// or an extra propagate in a diffusion handler would pass them all. This
// one pins the absolute cost of one fixed windowed run per app: the
// per-increment cycles, the integer ChipStats event counts (energy is a
// pure function of them), the final ProtocolStats and a checksum of the
// final values, plus the handler names and their registration order. The
// run reaches every path: capacity-4 fragments with a 2-slot ghost fan-out
// grow ghost trees and park inserts on pending futures, weights 1..9 make
// SSSP differ from BFS, and the window drives unsettle and resettle waves.
// An intended cost change re-pins from the failure message, which prints
// the observed pin as an initializer.
struct CostPin {
  std::vector<std::uint64_t> increment_cycles;
  sim::ChipStats stats;
  std::array<std::uint64_t, 11> proto{};  ///< ProtocolStats, field order.
  std::uint64_t checksum = 0;             ///< Over the final values.
  friend bool operator==(const CostPin&, const CostPin&) = default;
};

void PrintTo(const CostPin& p, std::ostream* os) {
  *os << "CostPin{{";
  for (std::size_t i = 0; i < p.increment_cycles.size(); ++i) {
    *os << (i == 0 ? "" : ", ") << p.increment_cycles[i];
  }
  const sim::ChipStats& s = p.stats;
  *os << "}, {" << s.cycles << ", " << s.actions_created << ", "
      << s.actions_executed << ", " << s.tasks_scheduled << ", "
      << s.instructions << ", " << s.stage_stalls << ", " << s.messages_staged
      << ", " << s.hops << ", " << s.deliveries << ", "
      << s.total_delivery_latency << ", " << s.io_injections << ", "
      << s.allocations << ", " << s.alloc_forwards << ", " << s.alloc_failures
      << ", " << s.faults << "}, {";
  for (std::size_t i = 0; i < p.proto.size(); ++i) {
    *os << (i == 0 ? "" : ", ") << p.proto[i];
  }
  *os << "}, " << p.checksum << "u}";
}

/// ProtocolStats in field order.
std::array<std::uint64_t, 11> protocol_counts(const graph::ProtocolStats& ps) {
  return {ps.edges_inserted,       ps.inserts_forwarded,
          ps.inserts_deferred,     ps.edges_deleted,
          ps.deletes_forwarded,    ps.deletes_deferred,
          ps.deletes_unmatched,    ps.ghost_allocs_started,
          ps.ghost_links_made,     ps.ghost_alloc_failures,
          ps.bad_targets};
}

constexpr std::uint64_t kPinVertices = 96;

wl::StreamSchedule cost_pin_schedule() {
  auto sched = wl::make_graphchallenge_like(kPinVertices, 1'200,
                                            wl::SamplingKind::kEdge,
                                            /*increments=*/6, /*seed=*/1515);
  rt::Xoshiro256 rng(1515);
  for (auto& inc : sched.increments) {
    for (StreamEdge& e : inc) {
      e.weight = static_cast<std::uint32_t>(1 + rng.below(9));
    }
  }
  return wl::apply_sliding_window(sched, /*window=*/2, /*drain=*/false);
}

/// Streams the pinned schedule under `App`, seeded by `seed(app, g)`, and
/// reads vertex values back through `value(app, g, vid)`.
template <class App>
CostPin run_cost_pin(const std::string& name, const auto& seed,
                     const auto& value) {
  sim::ChipConfig cfg;
  cfg.width = 6;
  cfg.height = 6;
  cfg.seed = 1515;
  sim::Chip chip(cfg);
  graph::RpvoConfig rc;
  rc.edge_capacity = 4;
  rc.ghost_fanout = 2;
  graph::GraphProtocol proto(chip, rc);
  App app(proto);
  app.install();
  graph::GraphConfig gc;
  gc.num_vertices = kPinVertices;
  gc.root_init = App::initial_state();
  graph::StreamingGraph g(proto, gc);
  seed(app, g);

  // Handler names and registration order: value, unsettle, resettle.
  EXPECT_EQ(chip.handlers().name(app.handler()), "app." + name);
  EXPECT_EQ(chip.handlers().name(app.unsettle_handler()),
            "app." + name + "-unsettle");
  EXPECT_EQ(chip.handlers().name(app.resettle_handler()),
            "app." + name + "-resettle");
  EXPECT_EQ(app.unsettle_handler(), app.handler() + 1);
  EXPECT_EQ(app.resettle_handler(), app.handler() + 2);

  CostPin pin;
  for (const auto& inc : cost_pin_schedule().increments) {
    pin.increment_cycles.push_back(test::run_capped(g, inc).cycles);
  }
  pin.stats = chip.stats();
  const graph::ProtocolStats ps = proto.stats();
  pin.proto = protocol_counts(ps);
  for (std::uint64_t v = 0; v < kPinVertices; ++v) {
    pin.checksum = pin.checksum * 1'000'003 + value(app, g, v);
  }

  // The run exercised every path the pin is meant to cover.
  EXPECT_GT(ps.ghost_allocs_started, 0u);
  EXPECT_GT(ps.inserts_deferred, 0u);
  EXPECT_GT(ps.edges_deleted, 0u);
  const auto executions = [&](rt::HandlerId h) {
    const auto& prof = chip.handler_profile();
    return h < prof.size() ? prof[h].executions : 0;
  };
  EXPECT_GT(executions(app.handler()), 0u);
  EXPECT_GT(executions(app.unsettle_handler()), 0u);
  EXPECT_GT(executions(app.resettle_handler()), 0u);
  return pin;
}

TEST(Determinism, MonotoneAppCostIsPinned) {
  const auto set_source = [](auto& app, graph::StreamingGraph& g) {
    app.set_source(g, 0);
  };
  {
    SCOPED_TRACE("app = bfs");
    const CostPin pin = run_cost_pin<apps::StreamingBfs>(
        "bfs", set_source,
        [](const auto& app, const auto& g, std::uint64_t v) {
          return app.level_of(g, v);
        });
    const CostPin want{
        {204, 323, 533, 605, 669, 575},
        {2909, 10044, 10248, 204, 41084, 0, 7964, 33865, 10248, 104968, 2284,
         133, 0, 0, 0},
        {1200, 135, 171, 792, 932, 0, 739, 133, 133, 0, 0},
        3930650766404267206u};
    EXPECT_EQ(pin, want);
  }
  {
    SCOPED_TRACE("app = sssp");
    const CostPin pin = run_cost_pin<apps::StreamingSssp>(
        "sssp", set_source,
        [](const auto& app, const auto& g, std::uint64_t v) {
          return app.distance_of(g, v);
        });
    const CostPin want{
        {221, 364, 691, 840, 719, 756},
        {3591, 12112, 12310, 198, 48905, 0, 9942, 40885, 12310, 130051, 2368,
         133, 0, 0, 0},
        {1200, 135, 171, 792, 932, 0, 738, 133, 133, 0, 0},
        8080202380114632658u};
    EXPECT_EQ(pin, want);
  }
  {
    SCOPED_TRACE("app = components");
    const CostPin pin = run_cost_pin<apps::StreamingComponents>(
        "components",
        [](auto& app, graph::StreamingGraph& g) { app.seed_labels(g); },
        [](const auto& app, const auto& g, std::uint64_t v) {
          return app.label_of(g, v);
        });
    const CostPin want{
        {330, 186, 874, 959, 1029, 964},
        {4342, 17029, 17211, 182, 66970, 7, 14128, 57778, 17211, 190078, 3083,
         133, 0, 0, 0},
        {1200, 135, 171, 792, 932, 0, 738, 133, 133, 0, 0},
        11404189137860091102u};
    EXPECT_EQ(pin, want);
  }
}

// Cost pin for the four ghost-allocation policies. MonotoneAppCostIsPinned
// runs under the default vicinity policy alone, and the bench records keep
// only vicinity headlines, so a reordered candidate or rng draw in another
// policy would pass every other check. One windowed BFS stream on a 16x16
// chip with 4-slot fragments allocates ghosts under every policy; each pins
// its ChipStats counters, its ProtocolStats and a checksum of the final
// levels. The 4-thread leg must equal the serial one and run pooled cycles,
// so ghosts are allocated on the worker pool under every policy too.
struct PolicyPin {
  std::array<std::uint64_t, 15> chip{};   ///< ChipStats, field order.
  std::array<std::uint64_t, 11> proto{};  ///< ProtocolStats, field order.
  std::uint64_t checksum = 0;             ///< Over the final levels.
  friend bool operator==(const PolicyPin&, const PolicyPin&) = default;
};

void PrintTo(const PolicyPin& p, std::ostream* os) {
  *os << "PolicyPin{{";
  for (std::size_t i = 0; i < p.chip.size(); ++i) {
    *os << (i == 0 ? "" : ", ") << p.chip[i];
  }
  *os << "}, {";
  for (std::size_t i = 0; i < p.proto.size(); ++i) {
    *os << (i == 0 ? "" : ", ") << p.proto[i];
  }
  *os << "}, " << p.checksum << "u}";
}

PolicyPin run_policy_pin(rt::AllocPolicyKind policy, std::uint32_t threads) {
  constexpr std::uint64_t n = 400;
  sim::ChipConfig cfg;
  cfg.width = 16;
  cfg.height = 16;
  cfg.threads = threads;
  cfg.alloc_policy = policy;
  cfg.seed = 808;
  sim::Chip chip(cfg);
  graph::RpvoConfig rc;
  rc.edge_capacity = 4;
  graph::GraphProtocol proto(chip, rc);
  apps::StreamingBfs bfs(proto);
  bfs.install();
  graph::GraphConfig gc;
  gc.num_vertices = n;
  gc.root_init = apps::StreamingBfs::initial_state();
  graph::StreamingGraph g(proto, gc);
  bfs.set_source(g, 0);
  auto sched = wl::make_graphchallenge_like(n, 6'000, wl::SamplingKind::kEdge,
                                            /*increments=*/4, /*seed=*/808);
  sched = wl::apply_sliding_window(sched, /*window=*/2, /*drain=*/false);
  for (const auto& inc : sched.increments) test::run_capped(g, inc);

  const sim::ChipStats s = chip.stats();
  const graph::ProtocolStats ps = proto.stats();
  EXPECT_GT(ps.ghost_allocs_started, 0u);
  EXPECT_GT(ps.edges_deleted, 0u);
  if (threads > 1) {
    EXPECT_GT(chip.barrier_syncs(), 0u) << "no pooled cycle ran";
  }
  PolicyPin pin;
  pin.chip = {s.cycles, s.actions_created, s.actions_executed,
              s.tasks_scheduled, s.instructions, s.stage_stalls,
              s.messages_staged, s.hops, s.deliveries,
              s.total_delivery_latency, s.io_injections, s.allocations,
              s.alloc_forwards, s.alloc_failures, s.faults};
  pin.proto = protocol_counts(ps);
  for (std::uint64_t v = 0; v < n; ++v) {
    pin.checksum = pin.checksum * 1'000'003 + bfs.level_of(g, v);
  }
  return pin;
}

TEST(Determinism, AllocationPolicyCostIsPinned) {
  const std::pair<rt::AllocPolicyKind, PolicyPin> cases[] = {
      {rt::AllocPolicyKind::kVicinity,
       {{3798, 45967, 47476, 1509, 198023, 126, 37594, 383690, 47476, 794809,
         9882, 677, 0, 0, 0},
        {6000, 2748, 1466, 2975, 5247, 0, 2151, 677, 677, 0, 0},
        626063481790116621u}},
      {rt::AllocPolicyKind::kRandom,
       {{3815, 46153, 47904, 1751, 199662, 611, 38017, 527393, 47899, 1010877,
         9882, 677, 0, 0, 0},
        {6000, 2526, 1688, 2975, 5247, 0, 2152, 677, 677, 0, 0},
        626063481790116621u}},
      {rt::AllocPolicyKind::kRoundRobin,
       {{3935, 45657, 47183, 1526, 196883, 194, 36771, 383539, 46654, 790517,
         9883, 677, 0, 0, 0},
        {6000, 2735, 1480, 2975, 5247, 0, 2152, 677, 677, 0, 0},
        626063481790116621u}},
      {rt::AllocPolicyKind::kLocal,
       {{6006, 45777, 47336, 1559, 197481, 85, 35894, 357112, 45777, 748567,
         9883, 677, 0, 0, 0},
        {6000, 2723, 1492, 2975, 5247, 0, 2151, 677, 677, 0, 0},
        626063481790116621u}},
  };
  for (const auto& [policy, want] : cases) {
    SCOPED_TRACE(std::string("policy = ") + std::string(rt::to_string(policy)));
    const PolicyPin serial = run_policy_pin(policy, 1);
    EXPECT_EQ(serial, want);
    EXPECT_EQ(run_policy_pin(policy, 4), serial);
  }
}

// Cost pin for the cycle's stage schedule. One fixed BFS stream on a 16x16
// chip at 4 threads pins the simulated cycles, the barrier arrivals and the
// cell visits. A pooled
// cycle costs 3 arrivals per partition and a sparse serial cycle none, so
// barrier_syncs() pins both the schedule's barrier count and how often the
// sparse serial path runs. The results tests above cannot see either. The
// scan leg shows that both engines share the schedule and the sparse path
// and differ only in the cells a sweep visits (scan: 2 x 256 per cycle). A
// change to the schedule (fewer barriers, a moved threshold) re-pins here
// from the failure message.
struct SchedulePin {
  std::uint64_t cycles = 0;
  std::uint64_t barrier_syncs = 0;
  std::uint64_t cell_visits = 0;
  friend bool operator==(const SchedulePin&, const SchedulePin&) = default;
};

void PrintTo(const SchedulePin& p, std::ostream* os) {
  *os << "SchedulePin{" << p.cycles << ", " << p.barrier_syncs << ", "
      << p.cell_visits << "}";
}

TEST(Determinism, StageScheduleBarrierCostIsPinned) {
  const auto run = [](sim::EngineKind engine) {
    constexpr std::uint64_t n = 600;
    sim::ChipConfig cfg;
    cfg.width = 16;
    cfg.height = 16;
    cfg.threads = 4;
    cfg.engine = engine;
    sim::Chip chip(cfg);
    graph::GraphProtocol proto(chip);
    apps::StreamingBfs bfs(proto);
    bfs.install();
    graph::GraphConfig gc;
    gc.num_vertices = n;
    gc.root_init = apps::StreamingBfs::initial_state();
    graph::StreamingGraph g(proto, gc);
    bfs.set_source(g, 0);
    const auto sched = wl::make_graphchallenge_like(n, 9'000,
                                                    wl::SamplingKind::kEdge,
                                                    /*increments=*/6, 7);
    for (const auto& inc : sched.increments) test::run_capped(g, inc);
    EXPECT_EQ(chip.threads(), 4u);
    return SchedulePin{chip.stats().cycles, chip.barrier_syncs(),
                       chip.cell_visits()};
  };
  {
    SCOPED_TRACE("engine = active");
    EXPECT_EQ(run(sim::EngineKind::kActive),
              (SchedulePin{2094, 10980, 561677}));
  }
  {
    SCOPED_TRACE("engine = scan");
    EXPECT_EQ(run(sim::EngineKind::kScan),
              (SchedulePin{2094, 10980, 2 * 256 * 2094}));
  }
}

// Congestion is where order-dependence would hide: shallow FIFOs and a
// single ejection per cycle force sustained backpressure (stage stalls,
// full router ports), yet the snapshot protocol must still be exact — for
// every thread count AND both cycle engines (the active-set engine must
// track full router ports precisely, or a stale room snapshot would skew
// the hop counters here first). The 16x16 mesh keeps more cells live than
// the sparse serial threshold (32 per partition, so 224 of 256 at 7
// threads) for part of the run, so every multi-thread leg runs pooled
// cycles too. A 64x4 mesh at 4 threads adds one-row blocks, one per
// partition: there every north/south hop crosses a block boundary, and
// both inner partitions trade with two neighbours.
TEST(Determinism, HeavyCongestionIsCycleIdenticalAcrossThreadCounts) {
  auto run = [](std::uint32_t width, std::uint32_t height,
                std::uint32_t threads,
                sim::EngineKind engine = sim::EngineKind::kScan) {
    sim::ChipConfig cfg;
    cfg.width = width;
    cfg.height = height;
    cfg.fifo_depth = 2;
    cfg.ejections_per_cycle = 1;
    cfg.threads = threads;
    cfg.engine = engine;
    cfg.seed = 77;
    sim::Chip chip(cfg);
    EXPECT_EQ(chip.threads(), threads);
    graph::GraphProtocol proto(chip);
    apps::StreamingBfs bfs(proto);
    bfs.install();
    graph::GraphConfig gc;
    gc.num_vertices = 300;
    gc.root_init = apps::StreamingBfs::initial_state();
    graph::StreamingGraph g(proto, gc);
    bfs.set_source(g, 0);
    const auto sched = wl::make_graphchallenge_like(300, 6'000,
                                                    wl::SamplingKind::kEdge,
                                                    /*increments=*/3, 77);
    for (const auto& inc : sched.increments) test::run_capped(g, inc);
    if (threads > 1) {
      EXPECT_GT(chip.barrier_syncs(), 0u) << "no pooled cycle ran";
    }
    return chip.stats();
  };
  const sim::ChipStats serial = run(16, 16, 1);
  EXPECT_GT(serial.stage_stalls, 0u) << "config failed to congest the mesh";
  for (const std::uint32_t threads : {2u, 4u, 7u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    EXPECT_EQ(run(16, 16, threads), serial);
  }
  for (const std::uint32_t threads : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE("engine = active, threads = " + std::to_string(threads));
    EXPECT_EQ(run(16, 16, threads, sim::EngineKind::kActive), serial);
  }

  const sim::ChipStats one_row_serial = run(64, 4, 1);
  for (const auto engine : {sim::EngineKind::kScan, sim::EngineKind::kActive}) {
    SCOPED_TRACE("64x4, threads = 4, engine = " +
                 std::string(sim::to_string(engine)));
    EXPECT_EQ(run(64, 4, 4, engine), one_row_serial);
  }
}

// Service-mode replay: the same recorded increment log driven through
// svc::StreamService (codec round-trip included) must be cycle-identical
// to the one-shot batch oracle — at every thread count and under both
// cycle engines. The service adds an ingest queue, an engine thread, and
// per-batch snapshot latching around stream_increment; none of that may
// move a single counter, because latching only reads the quiescent chip.
// The 12x12 mesh keeps the 4-thread legs above the sparse serial threshold
// for part of the run, so they run pooled cycles too.
TEST(Determinism, ServiceReplayIsCycleIdenticalToBatchRun) {
  constexpr std::uint64_t n = 260;
  auto sched = wl::make_graphchallenge_like(n, 4'200, wl::SamplingKind::kEdge,
                                            /*increments=*/4, /*seed=*/606);
  sched = wl::apply_sliding_window(sched, /*window=*/2, /*drain=*/false);

  // Record and re-read through the binary codec, so the replayed stream is
  // exactly what a serve-mode run would consume.
  std::stringstream log;
  io::write_increment_log(log, n, sched.increments);
  const io::DecodedIncrementLog decoded = io::read_increment_log(log);
  ASSERT_EQ(decoded.increments, sched.increments);

  auto make_rig = [&](std::uint32_t threads, sim::EngineKind engine) {
    sim::ChipConfig cfg;
    cfg.width = 12;
    cfg.height = 12;
    cfg.threads = threads;
    cfg.engine = engine;
    cfg.seed = 606;
    return cfg;
  };
  auto collect = [&](sim::Chip& chip, apps::StreamingBfs& bfs,
                     graph::StreamingGraph& g) {
    MatrixResult r;
    r.stats = chip.stats();
    r.energy_pj = chip.energy_pj();
    for (std::uint64_t v = 0; v < n; ++v) r.levels.push_back(bfs.level_of(g, v));
    return r;
  };

  // Batch oracle: serial scan engine, one-shot stream_increment loop.
  MatrixResult batch;
  {
    sim::Chip chip(make_rig(1, sim::EngineKind::kScan));
    graph::GraphProtocol proto(chip);
    apps::StreamingBfs bfs(proto);
    bfs.install();
    graph::GraphConfig gc;
    gc.num_vertices = n;
    gc.root_init = apps::StreamingBfs::initial_state();
    graph::StreamingGraph g(proto, gc);
    bfs.set_source(g, 0);
    for (const auto& inc : decoded.increments) test::run_capped(g, inc);
    batch = collect(chip, bfs, g);
  }
  ASSERT_GT(batch.stats.cycles, 0u);

  for (const sim::EngineKind engine :
       {sim::EngineKind::kScan, sim::EngineKind::kActive}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string("engine = ") +
                   std::string(sim::to_string(engine)) +
                   ", threads = " + std::to_string(threads));
      sim::Chip chip(make_rig(threads, engine));
      graph::GraphProtocol proto(chip);
      apps::StreamingBfs bfs(proto);
      bfs.install();
      graph::GraphConfig gc;
      gc.num_vertices = n;
      gc.root_init = apps::StreamingBfs::initial_state();
      graph::StreamingGraph g(proto, gc);
      bfs.set_source(g, 0);

      svc::StreamService service(g);
      for (const auto& inc : decoded.increments) {
        ASSERT_TRUE(service.submit(inc));
      }
      service.flush();

      // The service's latched view agrees with the chip fixed point...
      svc::QueryRequest req;
      req.kind = svc::QueryKind::kAppWord;
      req.app_word = apps::StreamingBfs::kLevelWord;
      const svc::QueryResult res = service.query(req);
      EXPECT_EQ(res.seq, decoded.increments.size());
      service.stop();

      // ...and the whole run is cycle-identical to the batch oracle:
      // counters, energy, per-vertex results, per-batch cycle totals.
      const MatrixResult served = collect(chip, bfs, g);
      EXPECT_EQ(served, batch);
      EXPECT_EQ(res.values, batch.levels);
      std::uint64_t cycles = 0;
      for (const auto& r : service.batch_reports()) cycles += r.cycles;
      EXPECT_EQ(cycles, batch.stats.cycles);
      if (threads > 1) {
        EXPECT_GT(chip.barrier_syncs(), 0u) << "no pooled cycle ran";
      }
    }
  }
}

// Repeated runs at the same thread count are identical too (no hidden
// dependence on scheduling or wall-clock).
TEST(Determinism, RepeatedParallelRunsAreIdentical) {
  const RunResult a = run_app(App::kBfs, 4);
  const RunResult b = run_app(App::kBfs, 4);
  EXPECT_EQ(a, b);
}

// step()-wise execution matches run_until_quiescent: neither engine has
// batching artefacts across dispatch granularity. Fans seeded on half the
// cells of a 12x12 mesh keep more cells live than the sparse serial
// threshold at first and then thin out, so the 2-thread runs switch from
// pooled to serial cycles — inside one run call when batched, between
// step() calls when stepped.
TEST(Determinism, SingleSteppingMatchesBatchedRun) {
  auto make_chip = [](std::uint32_t threads,
                      sim::EngineKind engine = sim::EngineKind::kScan) {
    sim::ChipConfig cfg = test::small_chip_config(12);
    cfg.threads = threads;
    cfg.engine = engine;
    return cfg;
  };
  auto seed_work = [](sim::Chip& chip) {
    const rt::HandlerId fan = chip.handlers().register_handler(
        "fan", [](rt::Context& ctx, const rt::Action& a) {
          if (a.args[0] > 0) {
            for (int i = 0; i < 3; ++i) {
              ctx.propagate(
                  rt::make_action(a.handler, a.target, a.args[0] - 1));
            }
          }
        });
    // Fan depths 1..5: the shallow fans finish first, so the live set
    // thins out to the few deep ones.
    for (std::uint32_t cc = 0; cc < chip.geometry().cell_count(); cc += 2) {
      const auto tgt = *chip.host_allocate(cc, std::make_unique<Blob>());
      chip.inject_local(rt::make_action(fan, tgt, rt::Word{1 + cc % 5}));
    }
  };
  // Both pooled and serial cycles ran: a pooled cycle costs 3 barrier
  // arrivals per partition, a serial one none.
  const auto expect_mixed = [](const sim::Chip& chip, std::uint64_t cycles) {
    EXPECT_GT(chip.barrier_syncs(), 0u) << "no pooled cycle ran";
    EXPECT_LT(chip.barrier_syncs(), 3u * chip.threads() * cycles)
        << "no serial cycle ran";
  };

  sim::Chip batched(make_chip(2));
  seed_work(batched);
  const std::uint64_t cycles = test::run_capped(batched);
  expect_mixed(batched, cycles);

  sim::Chip stepped(make_chip(2));
  seed_work(stepped);
  std::uint64_t stepped_cycles = 0;
  while (!stepped.quiescent() && stepped_cycles < test::kRunCycleCap) {
    stepped.step();
    ++stepped_cycles;
  }
  EXPECT_EQ(stepped_cycles, cycles);
  EXPECT_EQ(stepped.stats(), batched.stats());
  expect_mixed(stepped, cycles);

  // The same scenario under the active-set engine, stepped AND batched,
  // must land on the identical cycle count and counter block.
  sim::Chip active_batched(make_chip(2, sim::EngineKind::kActive));
  seed_work(active_batched);
  EXPECT_EQ(test::run_capped(active_batched), cycles);
  EXPECT_EQ(active_batched.stats(), batched.stats());

  sim::Chip active_stepped(make_chip(2, sim::EngineKind::kActive));
  seed_work(active_stepped);
  std::uint64_t active_cycles = 0;
  while (!active_stepped.quiescent() && active_cycles < test::kRunCycleCap) {
    active_stepped.step();
    ++active_cycles;
  }
  EXPECT_EQ(active_cycles, cycles);
  EXPECT_EQ(active_stepped.stats(), batched.stats());
}

// The idle-cycle regression of the active-set engine: a chip with zero
// injected work is quiescent from construction, quiesces in O(1) cycles
// (run_until_quiescent runs none at all), and forced idle steps visit no
// cells whatsoever — while the scan engine pays the full mesh walk for the
// same nothing.
TEST(Determinism, IdleChipQuiescesImmediatelyUnderBothEngines) {
  for (const sim::EngineKind engine :
       {sim::EngineKind::kScan, sim::EngineKind::kActive}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string("engine = ") +
                   std::string(sim::to_string(engine)) +
                   ", threads = " + std::to_string(threads));
      sim::ChipConfig cfg = test::small_chip_config();  // 8x8
      cfg.threads = threads;
      cfg.engine = engine;
      sim::Chip chip(cfg);
      EXPECT_TRUE(chip.quiescent());
      EXPECT_EQ(test::run_capped(chip), 0u);
      EXPECT_EQ(chip.stats().cycles, 0u);
      EXPECT_EQ(chip.cell_visits(), 0u);

      chip.step();
      chip.step();
      EXPECT_EQ(chip.stats().cycles, 2u);
      EXPECT_TRUE(chip.quiescent());
      // The sparse fast path keeps even the pooled chip off its barriers,
      // under both engines.
      EXPECT_EQ(chip.barrier_syncs(), 0u);
      if (engine == sim::EngineKind::kActive) {
        // O(active cells) with zero active cells: no visits at all.
        EXPECT_EQ(chip.cell_visits(), 0u);
      } else {
        // The scan engine's cost floor: 2 full-mesh walks per cycle.
        EXPECT_EQ(chip.cell_visits(), 2u * 2u * 64u);
      }
    }
  }
}

}  // namespace
}  // namespace ccastream
