// Unit tests: the chip's execution model — action dispatch, diffusion,
// timing rules, IO injection, quiescence, the allocate system action, and
// fault handling.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "test_util.hpp"

namespace ccastream::sim {
namespace {

using rt::Action;
using rt::GlobalAddress;
using rt::make_action;
using rt::Word;
using test::small_chip_config;

/// Simple counter object used as an action target.
class Counter final : public rt::ArenaObject {
 public:
  [[nodiscard]] std::size_t logical_bytes() const noexcept override { return 16; }
  std::uint64_t value = 0;
};

// A mesh the chip cannot index is refused in every build type, not only
// where assert() survives: an empty mesh, and one whose cell count would
// wrap the 32-bit cell index (65536 x 65536 is exactly 2^32 cells).
TEST(ChipDeathTest, RejectsUnindexableMeshes) {
  for (const auto& [w, h] : {std::pair{0u, 8u}, std::pair{8u, 0u}}) {
    ChipConfig cfg = small_chip_config();
    cfg.width = w;
    cfg.height = h;
    EXPECT_DEATH(Chip{cfg}, "fatal misuse: Chip: mesh width and height");
  }
  ChipConfig huge = small_chip_config();
  huge.width = 65536;
  huge.height = 65536;
  EXPECT_DEATH(Chip{huge}, "fatal misuse: Chip: mesh has 2\\^32 or more cells");
}

// Host injection refuses a cell outside the mesh in every build type: such
// an action would route off the mesh edge (or index past the cell array)
// instead of ever being executed. The null address is outside too.
TEST(ChipDeathTest, RejectsInjectionOutsideTheMesh) {
  const ChipConfig cfg = small_chip_config(8);  // cells 0..63
  const Action off_mesh = make_action(rt::HandlerId{1}, GlobalAddress{70, 0});
  const Action on_mesh = make_action(rt::HandlerId{1}, GlobalAddress{5, 0});
  EXPECT_DEATH(Chip(cfg).io_enqueue(off_mesh),
               "fatal misuse: Chip: action target outside the mesh");
  EXPECT_DEATH(Chip(cfg).inject_local(make_action(rt::HandlerId{1},
                                                  rt::kNullAddress)),
               "fatal misuse: Chip: action target outside the mesh");
  EXPECT_DEATH(Chip(cfg).inject_via(64, on_mesh),
               "fatal misuse: Chip: inject_via entry cell outside the mesh");
  EXPECT_DEATH(Chip(cfg).inject_via(0, off_mesh),
               "fatal misuse: Chip: action target outside the mesh");
}

TEST(Chip, StartsQuiescent) {
  Chip chip(small_chip_config());
  EXPECT_TRUE(chip.quiescent());
  EXPECT_EQ(chip.run_until_quiescent(100), 0u);
  EXPECT_EQ(chip.now(), 0u);
}

TEST(Chip, ExecutesInjectedAction) {
  Chip chip(small_chip_config());
  const auto addr = chip.host_allocate(5, std::make_unique<Counter>());
  ASSERT_TRUE(addr);
  const rt::HandlerId h = chip.handlers().register_handler(
      "bump", [](rt::Context& ctx, const Action& a) {
        auto* c = ctx.as<Counter>(a.target);
        ASSERT_NE(c, nullptr);
        c->value += a.args[0];
      });
  chip.inject_local(make_action(h, *addr, Word{7}));
  EXPECT_FALSE(chip.quiescent());
  chip.run_until_quiescent();
  EXPECT_TRUE(chip.quiescent());
  EXPECT_EQ(chip.as<Counter>(*addr)->value, 7u);
  EXPECT_EQ(chip.stats().actions_executed, 1u);
}

TEST(Chip, PropagatedActionTraversesNetworkMinimally) {
  auto cfg = small_chip_config(8);
  Chip chip(cfg);
  // Target in the far corner, injected at the near corner.
  const auto dst = chip.host_allocate(63, std::make_unique<Counter>());
  ASSERT_TRUE(dst);
  const rt::HandlerId h = chip.handlers().register_handler(
      "bump", [](rt::Context& ctx, const Action& a) {
        if (auto* c = ctx.as<Counter>(a.target)) ++c->value;
      });
  chip.inject_via(0, make_action(h, *dst));
  chip.run_until_quiescent();
  EXPECT_EQ(chip.as<Counter>(*dst)->value, 1u);
  // (0,0) -> (7,7) is 14 hops; injection adds no hop.
  EXPECT_EQ(chip.stats().hops, 14u);
  EXPECT_EQ(chip.stats().deliveries, 1u);
  // Staging (1 cycle) + 14 hops + ejection + dispatch: latency is bounded.
  EXPECT_GE(chip.now(), 15u);
  EXPECT_LE(chip.now(), 25u);
}

// One link per cycle, in a case that can see it: message A (cell 0 to 56,
// straight south) enters cell 8 in the same ROUTE phase in which cell 8
// still has phase-start traffic of its own (message B, cell 8 to 15,
// straight east), ahead of the sweep. A must wait for the next cycle even
// though its output link is free. Each message pays staging (cycle 0),
// seven hops (cycles 1-7) and ejection at cycle 8: a latency of 8 each.
// A second hop of A in cycle 1 would make the total 15 instead of 16.
TEST(Chip, MessageArrivingAheadOfTheSweepWaitsForTheNextCycle) {
  for (const EngineKind engine : {EngineKind::kScan, EngineKind::kActive}) {
    SCOPED_TRACE(to_string(engine));
    auto cfg = small_chip_config(8);
    cfg.engine = engine;
    Chip chip(cfg);
    const auto south = chip.host_allocate(56, std::make_unique<Counter>());
    const auto east = chip.host_allocate(15, std::make_unique<Counter>());
    ASSERT_TRUE(south && east);
    const rt::HandlerId h = chip.handlers().register_handler(
        "bump", [](rt::Context& ctx, const Action& a) {
          if (auto* c = ctx.as<Counter>(a.target)) ++c->value;
        });
    chip.inject_via(0, make_action(h, *south));
    chip.inject_via(8, make_action(h, *east));
    chip.run_until_quiescent();
    EXPECT_EQ(chip.as<Counter>(*south)->value, 1u);
    EXPECT_EQ(chip.as<Counter>(*east)->value, 1u);
    EXPECT_EQ(chip.stats().hops, 14u);
    EXPECT_EQ(chip.stats().deliveries, 2u);
    EXPECT_EQ(chip.stats().total_delivery_latency, 16u);
    // Ejection at cycle 8, dispatch, then one busy cycle (base cost 2).
    EXPECT_EQ(chip.stats().cycles, 10u);
  }
}

TEST(Chip, DiffusionFanOut) {
  Chip chip(small_chip_config());
  // One seed action at cell 0 propagates to 10 counters spread around.
  std::vector<GlobalAddress> targets;
  for (std::uint32_t i = 0; i < 10; ++i) {
    targets.push_back(*chip.host_allocate(i * 6 % 64, std::make_unique<Counter>()));
  }
  const rt::HandlerId bump = chip.handlers().register_handler(
      "bump", [](rt::Context& ctx, const Action& a) {
        if (auto* c = ctx.as<Counter>(a.target)) ++c->value;
      });
  const auto seed_addr = *chip.host_allocate(0, std::make_unique<Counter>());
  const rt::HandlerId seed = chip.handlers().register_handler(
      "seed", [&](rt::Context& ctx, const Action&) {
        for (const auto& t : targets) ctx.propagate(make_action(bump, t));
      });
  chip.inject_local(make_action(seed, seed_addr));
  chip.run_until_quiescent();
  for (const auto& t : targets) EXPECT_EQ(chip.as<Counter>(t)->value, 1u);
  EXPECT_EQ(chip.stats().actions_executed, 11u);
  EXPECT_EQ(chip.stats().messages_staged, 10u);
}

TEST(Chip, StagingTakesOneCycleEach) {
  // A handler that propagates K self-local messages keeps its cell busy for
  // K staging cycles (one op per cycle, paper §4).
  Chip chip(small_chip_config());
  const auto tgt = *chip.host_allocate(0, std::make_unique<Counter>());
  const rt::HandlerId noop =
      chip.handlers().register_handler("noop", [](rt::Context&, const Action&) {});
  const rt::HandlerId burst = chip.handlers().register_handler(
      "burst", [&](rt::Context& ctx, const Action&) {
        for (int i = 0; i < 5; ++i) ctx.propagate(make_action(noop, tgt));
      });
  chip.inject_local(make_action(burst, tgt));
  chip.run_until_quiescent();
  EXPECT_EQ(chip.stats().messages_staged, 5u);
  // 5 stage ops + 6 dispatches at >= 1 cycle each.
  EXPECT_GE(chip.stats().cycles, 11u);
}

TEST(Chip, ActionCostKeepsCellBusy) {
  auto cfg = small_chip_config();
  cfg.action_base_cost = 1;
  Chip chip(cfg);
  const auto tgt = *chip.host_allocate(0, std::make_unique<Counter>());
  const rt::HandlerId heavy = chip.handlers().register_handler(
      "heavy", [](rt::Context& ctx, const Action&) { ctx.charge(9); });
  chip.inject_local(make_action(heavy, tgt));
  chip.run_until_quiescent();
  // 1 base + 9 charged = 10 instruction cycles.
  EXPECT_EQ(chip.stats().instructions, 10u);
  EXPECT_EQ(chip.stats().cycles, 10u);
}

TEST(Chip, UnknownHandlerCountsFault) {
  Chip chip(small_chip_config());
  const auto tgt = *chip.host_allocate(0, std::make_unique<Counter>());
  chip.inject_local(make_action(rt::HandlerId{999}, tgt));
  chip.run_until_quiescent();
  EXPECT_EQ(chip.stats().faults, 1u);
  EXPECT_EQ(chip.stats().actions_executed, 0u);
  EXPECT_TRUE(chip.quiescent());
}

TEST(Chip, IoInjectsOnePerCellPerCycle) {
  auto cfg = small_chip_config(4);
  cfg.io_sides = kIoWest;  // 4 IO cells
  Chip chip(cfg);
  const auto tgt = *chip.host_allocate(15, std::make_unique<Counter>());
  const rt::HandlerId bump = chip.handlers().register_handler(
      "bump", [](rt::Context& ctx, const Action& a) {
        if (auto* c = ctx.as<Counter>(a.target)) ++c->value;
      });
  for (int i = 0; i < 40; ++i) chip.io_enqueue(make_action(bump, tgt));
  EXPECT_EQ(chip.io_pending(), 40u);
  // 40 actions over 4 IO cells: at least 10 cycles of injection.
  chip.run_until_quiescent();
  EXPECT_EQ(chip.io_pending(), 0u);
  EXPECT_EQ(chip.stats().io_injections, 40u);
  EXPECT_EQ(chip.as<Counter>(tgt)->value, 40u);
  EXPECT_GE(chip.stats().cycles, 10u);
}

TEST(Chip, AllocateSystemActionRoundTrip) {
  auto cfg = small_chip_config();
  cfg.alloc_policy = rt::AllocPolicyKind::kVicinity;
  Chip chip(cfg);
  chip.register_object_kind(7, [] { return std::make_unique<Counter>(); });

  // The reply handler fulfils nothing fancy — it just records the address.
  const auto home = *chip.host_allocate(20, std::make_unique<Counter>());
  GlobalAddress got = rt::kNullAddress;
  const rt::HandlerId reply = chip.handlers().register_handler(
      "reply", [&](rt::Context&, const Action& a) {
        got = GlobalAddress::unpack(a.args[0]);
        EXPECT_EQ(a.args[1], 42u);  // tag round-trips
      });
  const rt::HandlerId kick = chip.handlers().register_handler(
      "kick", [&](rt::Context& ctx, const Action& a) {
        ctx.call_cc_allocate(7, a.target, reply, 42);
      });
  chip.inject_local(make_action(kick, home));
  chip.run_until_quiescent();

  ASSERT_FALSE(got.is_null());
  EXPECT_NE(chip.deref(got), nullptr);
  EXPECT_EQ(chip.stats().allocations, 1u);
  // Vicinity policy: the new object is at most 2 hops from the requester.
  EXPECT_LE(chip.geometry().hops(20, got.cc), 2u);
}

TEST(Chip, AllocateForwardsWhenArenaFull) {
  auto cfg = small_chip_config(4);
  cfg.cc_memory_bytes = 8;  // nothing fits anywhere...
  cfg.alloc_forward_budget = 5;
  Chip chip(cfg);
  chip.register_object_kind(7, [] { return std::make_unique<Counter>(); });

  bool got_null = false;
  const rt::HandlerId reply = chip.handlers().register_handler(
      "reply", [&](rt::Context&, const Action& a) {
        got_null = GlobalAddress::unpack(a.args[0]).is_null();
      });
  const rt::HandlerId kick = chip.handlers().register_handler(
      "kick", [&](rt::Context& ctx, const Action& a) {
        ctx.call_cc_allocate(7, a.target, reply, 0);
      });
  // The reply target object cannot be host_allocated (memory 8 < 16), so
  // target a dummy address; reply handler doesn't deref.
  chip.inject_local(make_action(kick, GlobalAddress{0, 0}));
  chip.run_until_quiescent();

  EXPECT_TRUE(got_null);
  EXPECT_EQ(chip.stats().alloc_forwards, 5u);  // bounced budget times
  EXPECT_EQ(chip.stats().alloc_failures, 1u);
  EXPECT_EQ(chip.stats().allocations, 0u);
}

TEST(Chip, EnergyAccumulatesPerEvent) {
  auto cfg = small_chip_config();
  cfg.energy = EnergyModel{};  // defaults
  Chip chip(cfg);
  const auto tgt = *chip.host_allocate(32, std::make_unique<Counter>());
  const rt::HandlerId bump = chip.handlers().register_handler(
      "bump", [](rt::Context&, const Action&) {});
  EXPECT_EQ(chip.energy_pj(), 0.0);
  chip.io_enqueue(make_action(bump, tgt));
  chip.run_until_quiescent();
  const auto ev = chip.stats().energy_events();
  EXPECT_GT(ev.instructions, 0u);
  EXPECT_GT(ev.io_injections, 0u);
  EXPECT_DOUBLE_EQ(chip.energy_pj(), total_pj(cfg.energy, ev));
  EXPECT_GT(chip.energy_pj(), 0.0);
}

TEST(Chip, ScheduleLocalRunsBeforeQueuedActions) {
  Chip chip(small_chip_config());
  const auto tgt = *chip.host_allocate(3, std::make_unique<Counter>());
  std::vector<int> order;
  const rt::HandlerId second = chip.handlers().register_handler(
      "second", [&](rt::Context&, const Action&) { order.push_back(2); });
  const rt::HandlerId task = chip.handlers().register_handler(
      "task", [&](rt::Context&, const Action&) { order.push_back(1); });
  const rt::HandlerId first = chip.handlers().register_handler(
      "first", [&](rt::Context& ctx, const Action& a) {
        order.push_back(0);
        ctx.schedule_local(make_action(task, a.target));
      });
  chip.inject_local(make_action(first, tgt));
  chip.inject_local(make_action(second, tgt));
  chip.run_until_quiescent();
  ASSERT_EQ(order.size(), 3u);
  // The locally scheduled task preempts the queued "second" action.
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

TEST(Chip, DeterministicAcrossRuns) {
  auto make_run = [] {
    auto cfg = small_chip_config();
    cfg.seed = 99;
    Chip chip(cfg);
    const auto tgt = *chip.host_allocate(17, std::make_unique<Counter>());
    const rt::HandlerId fan = chip.handlers().register_handler(
        "fan", [&, tgt](rt::Context& ctx, const Action& a) {
          if (a.args[0] > 0) {
            for (int i = 0; i < 3; ++i) {
              ctx.propagate(make_action(a.handler, tgt, a.args[0] - 1));
            }
          }
        });
    chip.inject_local(make_action(fan, tgt, Word{4}));
    chip.run_until_quiescent();
    return chip.stats().cycles;
  };
  EXPECT_EQ(make_run(), make_run());
}

TEST(Chip, ActivationTraceRecordsWhenEnabled) {
  auto cfg = small_chip_config();
  cfg.record_activation = true;
  Chip chip(cfg);
  const auto tgt = *chip.host_allocate(9, std::make_unique<Counter>());
  const rt::HandlerId bump = chip.handlers().register_handler(
      "bump", [](rt::Context&, const Action&) {});
  chip.io_enqueue(make_action(bump, tgt));
  chip.run_until_quiescent();
  EXPECT_EQ(chip.activation().samples().size(), chip.stats().cycles);
  EXPECT_GT(chip.activation().peak_active_fraction(64), 0.0);
}

// Chip memory follows live traffic, not history: every lane and queue
// message sits in a slot of its mesh row's pool, and a message leaving the
// row (a north/south hop, an APPLY) is copied into a slot of the
// destination row's pool while the source slot goes home. Ten identical
// bursts, each run to quiescence, then grow the pools by less than a block
// per row between the fifth and the tenth — a pool that lent slots to
// another row would carve fresh blocks every burst — and the pools stay
// under a tenth of the lane storage a per-cell reservation of the
// (deep) fifo_depth would take. At 2 threads the 32-row mesh has two-row
// blocks, so north/south hops also stay inside a partition; at 4 every
// block is one row and every such hop goes through APPLY.
TEST(Chip, MessageSlotsTrackLiveTrafficNotHistory) {
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    ChipConfig cfg = small_chip_config(32);
    cfg.threads = threads;
    cfg.fifo_depth = 16;
    Chip chip(cfg);
    const std::uint32_t cells = chip.geometry().cell_count();
    // Each action hops on to a cell drawn from its payload until its count
    // runs out: an IO action heads a chain of 3 propagates.
    const rt::HandlerId hop = chip.handlers().register_handler(
        "hop", [cells](rt::Context& ctx, const Action& a) {
          if (a.args[0] == 0) return;
          const Word next =
              a.args[1] * 6364136223846793005ull + 1442695040888963407ull;
          const auto cc = static_cast<std::uint32_t>((next >> 33) % cells);
          ctx.propagate(make_action(a.handler, GlobalAddress{cc, 0},
                                    a.args[0] - 1, next));
        });
    std::uint64_t slots_round5 = 0;
    for (int round = 1; round <= 10; ++round) {
      for (std::uint32_t i = 0; i < 4000; ++i) {
        chip.io_enqueue(make_action(hop, GlobalAddress{(i * 613) % cells, 0},
                                    Word{3}, Word{i}));
      }
      chip.run_until_quiescent();
      ASSERT_TRUE(chip.quiescent());
      if (round == 5) slots_round5 = chip.message_slots();
    }
    EXPECT_EQ(chip.stats().actions_executed, 10u * 4000u * 4u);
    EXPECT_LT(chip.message_slots() - slots_round5,
              SlotPool::kBlockSlots * cfg.height);
    EXPECT_LT(chip.message_slots(),
              std::uint64_t{cells} * CellSoA::kLanes * cfg.fifo_depth / 10);
    if (threads > 1) {
      EXPECT_GT(chip.barrier_syncs(), 0u);
    }
  }
}

TEST(Chip, ActivityLevelsShapeMatchesMesh) {
  Chip chip(small_chip_config(4));
  const auto levels = chip.activity_levels();
  EXPECT_EQ(levels.size(), 16u);
  for (const auto l : levels) EXPECT_EQ(l, 0);  // idle chip is dark
}

}  // namespace
}  // namespace ccastream::sim
