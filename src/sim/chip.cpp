#include "sim/chip.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <utility>

namespace ccastream::sim {

namespace {

/// Packs the operands of the allocate system action into a payload.
/// w0 = kind | budget<<16 | reply_handler<<32 ; w1 = reply_to ; w2 = tag.
rt::Action make_allocate_action(std::uint32_t target_cc, rt::ObjectKind kind,
                                std::uint32_t budget, rt::HandlerId reply_handler,
                                rt::GlobalAddress reply_to, rt::Word tag) {
  const rt::Word w0 = static_cast<rt::Word>(kind) |
                      (static_cast<rt::Word>(budget & 0xFFFFu) << 16) |
                      (static_cast<rt::Word>(reply_handler) << 32);
  return rt::make_action(rt::kHandlerAllocate,
                         rt::GlobalAddress{target_cc, 0}, w0, reply_to.pack(), tag);
}

/// Sparse fast-path trigger of the parallel engine: when the whole chip
/// holds at most this many live cells *per partition*, a cycle's useful
/// work (a few hundred cell visits) is dwarfed by its three barrier waits,
/// so run_cycles executes the cycle phase-major on the calling thread
/// instead of dispatching the pool. Purely a host-performance knob: the
/// serial schedule is the barrier schedule minus the barriers, so results
/// are identical either way.
constexpr std::uint64_t kSparseSerialThreshold = 32;

/// Rejects a mesh the chip cannot index, in every build type: cells are
/// numbered by a 32-bit index (rt::MeshGeometry::cell_count() would wrap
/// at 2^32 cells), and an empty mesh has no cell to route to.
const ChipConfig& checked_mesh(const ChipConfig& cfg) {
  if (cfg.width == 0 || cfg.height == 0) {
    rt::fatal_misuse("Chip: mesh width and height must be non-zero", __FILE__,
                     __LINE__);
  }
  if (static_cast<std::uint64_t>(cfg.width) * cfg.height > UINT32_MAX) {
    rt::fatal_misuse("Chip: mesh has 2^32 or more cells", __FILE__, __LINE__);
  }
  return cfg;
}

/// Rejects a host injection outside the mesh (the null address included)
/// in every build type: it would route off the mesh edge or index past the
/// cell array, and its action would never run.
void require_on_mesh(std::uint32_t cc, std::uint32_t cells, const char* what) {
  if (cc >= cells) rt::fatal_misuse(what, __FILE__, __LINE__);
}
constexpr const char* kOffMeshTarget = "Chip: action target outside the mesh";

}  // namespace

std::string_view to_string(EngineKind engine) noexcept {
  switch (engine) {
    case EngineKind::kScan: return "scan";
    case EngineKind::kActive: return "active";
  }
  return "scan";
}

std::optional<EngineKind> parse_engine(std::string_view text) {
  if (text == "scan") return EngineKind::kScan;
  if (text == "active") return EngineKind::kActive;
  return std::nullopt;
}

EngineKind resolve_engine(const std::optional<EngineKind>& requested) {
  if (requested) return *requested;
  if (const char* env = std::getenv("CCASTREAM_ENGINE")) {
    if (const auto engine = parse_engine(env)) return *engine;
    // Warn (once) instead of failing, mirroring CCASTREAM_THREADS: a typo
    // would otherwise silently fall back to the default engine — e.g. a CI
    // matrix job or a bench sweep measuring the wrong engine.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "ccastream: ignoring unparsable CCASTREAM_ENGINE '%s' "
                   "(using active)\n",
                   env);
    }
  }
  // The event-driven engine is the default: on a saturated mesh its
  // bitmap sweeps cost what the scan walk does, on a sparse one far less.
  // The scan oracle stays selectable.
  return EngineKind::kActive;
}

std::uint32_t resolve_threads(std::uint32_t requested) noexcept {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("CCASTREAM_THREADS")) {
    // The whole token must be a count of at least 1, as for
    // CCASTREAM_WINDOW: strtol so negatives are rejected instead of
    // wrapping, and the endptr check so "4x" warns instead of running 4.
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return static_cast<std::uint32_t>(std::min(v, 4096l));
    }
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "ccastream: ignoring unparsable CCASTREAM_THREADS '%s' "
                   "(using 1)\n",
                   env);
    }
  }
  return 1;
}

/// Concrete handler execution context bound to one cell for one dispatch.
/// All mutations land in the cell itself or in the executing partition's
/// private accumulators — never in shared chip state — which is what makes
/// handler execution safe and deterministic under the parallel engine (and
/// what keeps the active-set invariant local: a handler can only create
/// work on the cell that is already executing, which is active by
/// definition).
class CellContext final : public rt::Context {
 public:
  CellContext(Chip& chip, Chip::PartitionState& st, ComputeCell& cell)
      : chip_(chip), st_(st), cell_(cell) {}

  void propagate(const rt::Action& action) override {
    cell_.push_staged(Message{action, chip_.cycle_});
    ++st_.stats.actions_created;
  }

  void schedule_local(const rt::Action& action) override {
    cell_.push_task(action);
    ++st_.stats.tasks_scheduled;
  }

  void charge(std::uint32_t instructions) override { charged_ += instructions; }

  [[nodiscard]] rt::ArenaObject* deref(rt::GlobalAddress addr) override {
    if (addr.cc != cell_.index()) return nullptr;
    return cell_.arena.get(addr.slot);
  }

  void call_cc_allocate(rt::ObjectKind kind, rt::GlobalAddress reply_to,
                        rt::HandlerId reply_handler, rt::Word tag) override {
    const std::uint32_t target_cc = rt::choose_ghost_cell(
        chip_.cfg_.alloc_policy, chip_.cfg_.vicinity_radius, cell_.index(),
        chip_.mesh_, cell_.rng, cell_.alloc_cursor());
    propagate(make_allocate_action(target_cc, kind, chip_.cfg_.alloc_forward_budget,
                                   reply_handler, reply_to, tag));
  }

  [[nodiscard]] std::uint32_t partition() const override { return st_.index; }

  [[nodiscard]] std::uint32_t charged() const noexcept { return charged_; }

 private:
  Chip& chip_;
  Chip::PartitionState& st_;
  ComputeCell& cell_;
  std::uint32_t charged_ = 0;
};

Chip::Chip(ChipConfig cfg)
    : cfg_(checked_mesh(cfg)),
      mesh_(cfg.width, cfg.height),
      layout_(cfg.width, cfg.height, resolve_threads(cfg.threads)),
      io_(mesh_, cfg.io_sides) {
  check_level_ = rt::resolve_check_level(cfg_.check_level);
  // The SoA slab and the row pools first (the cells hold pointers into
  // both), then the cell array — all sized exactly once from the config
  // dimensions; none ever relocates.
  soa_.init(mesh_.cell_count(), cfg.fifo_depth);
  pools_ = std::vector<SlotPool>(cfg.height);
  rt::SplitMix64 seeder(cfg.seed);
  cells_.build(mesh_.cell_count(), [&](ComputeCell* slot, std::uint32_t i) {
    new (slot) ComputeCell(i, cfg.cc_memory_bytes, &soa_,
                           &pools_[i / cfg.width], seeder.next(), check_level_);
  });
  trace_.set_enabled(cfg.record_activation);
  cell_load_.assign(mesh_.cell_count(), 0);
  registry_.register_system_handler(
      rt::kHandlerAllocate, "sys.allocate",
      [this](rt::Context& ctx, const rt::Action& a) { handle_allocate(ctx, a); });

  engine_ = resolve_engine(cfg_.engine);
  engine_active_ = engine_ == EngineKind::kActive;

  // Mesh partition: one worker per partition of block-cyclic rows, fixed
  // for the chip's life (see sim/partition.hpp).
  const std::uint32_t parts = layout_.parts();
  parts_ = std::vector<PartitionState>(parts);
  for (std::uint32_t p = 0; p < parts; ++p) {
    PartitionState& st = parts_[p];
    st.index = p;
    const std::vector<CellSpan>& blocks = layout_.blocks(p);
    st.active = ActiveSet({blocks.front().begin, blocks.back().end});
  }
  for (std::size_t i = 0; i < io_.cell_count(); ++i) {
    parts_[layout_.owner(io_.cell(i).attached_cc)].io_cells.push_back(i);
  }
  if (parts > 1) pool_ = std::make_unique<PartitionPool>(parts);
}

void Chip::register_object_kind(rt::ObjectKind kind, ObjectFactory factory) {
  factories_[kind] = std::move(factory);
}

std::optional<rt::GlobalAddress> Chip::host_allocate(
    std::uint32_t cc, std::unique_ptr<rt::ArenaObject> obj) {
  if (cc >= cells_.size()) return std::nullopt;
  const auto slot = cells_[cc].arena.insert(std::move(obj));
  if (!slot) return std::nullopt;
  return rt::GlobalAddress{cc, *slot};
}

rt::ArenaObject* Chip::deref(rt::GlobalAddress addr) {
  if (addr.is_null() || addr.cc >= cells_.size()) return nullptr;
  return cells_[addr.cc].arena.get(addr.slot);
}

// The host injections run between cycles and count into partition 0's
// block; every block is summed when read.
void Chip::io_enqueue(const rt::Action& action) {
  require_on_mesh(action.target.cc, cells_.size(), kOffMeshTarget);
  io_.enqueue(action);
  ++parts_.front().stats.actions_created;
  // No cell is touched yet: the attached cell activates when cycle_io
  // actually injects, and the queued action keeps the chip non-quiescent
  // until then.
}

void Chip::inject_local(const rt::Action& action) {
  require_on_mesh(action.target.cc, cells_.size(), kOffMeshTarget);
  cells_[action.target.cc].push_action(action);
  ++parts_.front().stats.actions_created;
  active_set(action.target.cc).insert(action.target.cc);
}

void Chip::inject_via(std::uint32_t at_cc, const rt::Action& action) {
  require_on_mesh(at_cc, cells_.size(),
                  "Chip: inject_via entry cell outside the mesh");
  require_on_mesh(action.target.cc, cells_.size(), kOffMeshTarget);
  cells_[at_cc].push_staged(Message{action, cycle_});
  ++parts_.front().stats.actions_created;
  active_set(at_cc).insert(at_cc);
}

bool Chip::quiescent() const {
  // Between cycles every live action sits in an IO queue or in a cell's
  // queues or lanes, which keep its activity bit set (the post-cycle
  // invariant, kept under both engines); the outboxes are drained.
  return active_cells() == 0 && io_.drained();
}

ChipStats Chip::stats() const {
  ChipStats total;
  for (const PartitionState& st : parts_) total.add(st.stats);
  total.cycles = cycle_;
  return total;
}

std::uint64_t Chip::cell_visits() const noexcept {
  std::uint64_t n = 0;
  for (const PartitionState& st : parts_) n += st.cell_visits;
  return n;
}

std::vector<HandlerProfile> Chip::handler_profile() const {
  std::vector<HandlerProfile> total;
  for (const PartitionState& st : parts_) {
    if (total.size() < st.profile.size()) total.resize(st.profile.size());
    for (std::size_t h = 0; h < st.profile.size(); ++h) {
      total[h].executions += st.profile[h].executions;
      total[h].instructions += st.profile[h].instructions;
    }
  }
  return total;
}

std::uint64_t Chip::active_cells() const noexcept {
  std::uint64_t n = 0;
  for (const PartitionState& st : parts_) n += st.active.size();
  return n;
}

std::uint64_t Chip::message_slots() const noexcept {
  std::uint64_t n = 0;
  for (const SlotPool& pool : pools_) n += pool.slots();
  return n;
}

std::uint64_t Chip::run_until_quiescent(std::uint64_t max_cycles) {
  return run_cycles(max_cycles, /*until_quiescent=*/true);
}

void Chip::step() { run_cycles(1, /*until_quiescent=*/false); }

std::uint64_t Chip::run_cycles(std::uint64_t max_cycles, bool until_quiescent) {
  if (max_cycles == 0) return 0;
  if (until_quiescent && quiescent()) return 0;

  // The cycle's stages, stated once. Each runs for every partition over
  // its own cells; a stage reads what other partitions wrote only in
  // earlier stages, so one barrier after each keeps the pooled mode exact.
  //   ROUTE   move traffic, deferring cross-partition pushes to outboxes;
  //   SETTLE  APPLY inbound outboxes, IO injection, COMPUTE one op and
  //           latch the router-input sizes the next ROUTE reads.
  static constexpr std::array<void (Chip::*)(PartitionState&), 2> kStages = {
      &Chip::cycle_route, &Chip::cycle_settle};

  // The end-of-cycle step both modes share: count the cycle, sample the
  // trace, decide whether the run is done.
  std::uint64_t ran = 0;
  bool done = false;
  const auto end_cycle = [&] {
    merge_partitions();
    ++ran;
    done = ran >= max_cycles || (until_quiescent && quiescent());
  };

  // Serial whenever there is one partition — or the chip holds so little
  // live work that the three barrier waits of a pooled cycle would dwarf
  // the cell visits (see kSparseSerialThreshold). The mode can flip per
  // cycle as a frontier thins out or widens; the decision reads only
  // simulated state, so it is deterministic, and either mode produces
  // bit-identical results.
  const auto serial_preferred = [this] {
    return parts_.size() == 1 ||
           active_cells() <= kSparseSerialThreshold * parts_.size();
  };

  while (!done) {
    if (serial_preferred()) {
      // Phase-major on the calling thread: every stage finishes on all
      // partitions before the next begins — the barrier schedule without
      // the barriers.
      for (const auto stage : kStages) {
        for (PartitionState& st : parts_) (this->*stage)(st);
      }
      end_cycle();
      continue;
    }

    // Pooled: one dispatch for a whole batch of cycles, one barrier after
    // each stage and one after the end-of-cycle step, which partition 0
    // (the calling thread) runs while the others wait. The barriers
    // provide the happens-before edges, so `stop`, `done` and `ran` need
    // no atomics. The batch also ends when the mesh goes sparse, so the
    // outer loop can continue on the serial fast path.
    bool stop = false;
    pool_->run([&](std::uint32_t p) {
      do {
        for (const auto stage : kStages) {
          (this->*stage)(parts_[p]);
          pool_->sync();
        }
        if (p == 0) {
          end_cycle();
          stop = done || serial_preferred();
        }
        pool_->sync();
      } while (!stop);
    });
  }
  return ran;
}

template <typename F>
void Chip::sweep(PartitionState& st, F&& f) {
  if (!engine_active_) {
    // Scan: every owned cell, block by block, without reading the bitmap —
    // an oracle for which cells run that does not trust the flags.
    for (const auto [begin, end] : layout_.blocks(st.index)) {
      st.cell_visits += end - begin;
      for (std::uint32_t idx = begin; idx < end; ++idx) f(idx);
    }
    return;
  }
  st.active.for_each([&](std::uint32_t idx) {
    ++st.cell_visits;
    f(idx);
  });
}

void Chip::deliver(PartitionState& st, ComputeCell& cell, const Message& msg) {
  cell.push_action(msg.action);
  ++st.stats.deliveries;
  st.stats.total_delivery_latency += cycle_ - msg.birth_cycle;
}

void Chip::cycle_route(PartitionState& st) {
  const bool adaptive = cfg_.routing == RoutingPolicyKind::kWestFirst ||
                        cfg_.routing == RoutingPolicyKind::kOddEven;

  // Sweeping the flags is exact: a cell inactive at phase start has zero
  // phase-start router occupancy, which is precisely the cells the scan
  // visits as a no-op (without advancing their arbitration pointer). A
  // cell this partition's own push flags mid-sweep is visited iff its word
  // comes later in the sweep, and that visit is the same early-return
  // no-op: a cell activated this phase has zero snapshot latches and
  // empty io/local_out lanes.
  sweep(st, [&](std::uint32_t idx) { route_cell(st, idx, adaptive); });
}

void Chip::route_cell(PartitionState& st, std::uint32_t idx, bool adaptive) {
  ComputeCell& cell = cells_[idx];
  // Skip (freezing the arbitration pointer) based on the router state at
  // phase start. Live occupancy would count messages pushed by earlier
  // cells *this* phase, making the skip — and thus arb_next's advance —
  // depend on cell visit order and the mesh partitioning. io_in and
  // local_out are only written in later phases, so their live sizes are
  // their phase-start sizes.
  const std::uint32_t* snap = soa_.snapshot(idx);
  std::uint32_t start_occupancy =
      cell.io_in().size() + cell.local_out().size();
  for (std::size_t d = 0; d < kMeshDirections; ++d) {
    start_occupancy += snap[d];
  }
  if (start_occupancy == 0) return;
  const rt::Coord cur = mesh_.coord_of(idx);

  std::uint32_t ejections_left = cfg_.ejections_per_cycle;
  bool used_out[kMeshDirections] = {false, false, false, false};

  // Downstream buffer occupancy, used only by adaptive routing, read from
  // the phase-start snapshots (deterministic regardless of the order the
  // partitions — or the cells within a partition — are visited). Off-mesh
  // directions read as "full" so they are never preferred. Inactive
  // neighbours hold the all-zero latches they took when they went idle
  // (see cycle_compute).
  DownstreamOccupancy occ{};
  if (adaptive) {
    for (std::size_t d = 0; d < kMeshDirections; ++d) {
      const auto dir = static_cast<Direction>(d);
      const rt::Coord n = ccastream::sim::step(cur, dir);
      occ[d] = mesh_.contains(n) && !(dir == Direction::kNorth && cur.y == 0) &&
                       !(dir == Direction::kWest && cur.x == 0)
                   ? soa_.snapshot(mesh_.index_of(n))[static_cast<std::size_t>(
                         opposite(dir))]
                   : ~0u;
    }
  }

  // Six input sources arbitrated round-robin: four neighbour ports, the
  // IO port, and locally staged traffic — the SoA lane order, so the
  // arbitration index IS the lane index.
  constexpr std::size_t kSources = CellSoA::kLanes;
  for (std::size_t s = 0; s < kSources; ++s) {
    const std::size_t src_idx = (soa_.arb_next(idx) + s) % kSources;
    // One link per cycle: a router lane empty at phase start holds only
    // messages that hopped in this phase. Any other lane still has a
    // phase-start message at its front: only this cell pops it, once.
    if (src_idx < kMeshDirections && snap[src_idx] == 0) continue;
    const Lane src = soa_.lane(idx, src_idx);
    if (src.empty()) continue;

    const Message& m = src.front();

    const rt::Coord dst = mesh_.coord_of(m.action.target.cc);
    if (dst == cur) {
      if (ejections_left == 0) continue;
      deliver(st, cell, m);
      cell.pop_input(src);
      --ejections_left;
      continue;
    }

    const Direction dir = route(cfg_.routing, cur, dst, occ);
    assert(dir != Direction::kLocal);
    const auto d = static_cast<std::size_t>(dir);
    if (used_out[d]) continue;

    const rt::Coord next = ccastream::sim::step(cur, dir);
    assert(mesh_.contains(next));
    const std::uint32_t next_idx = mesh_.index_of(next);
    const auto port = static_cast<std::size_t>(opposite(dir));
    // Room check against the neighbour's phase-start snapshot. This cell
    // is the only writer of that port lane and used_out caps it at one
    // push per cycle, so snapshot-room guarantees real room; pops by the
    // owner during this phase only free additional space.
    if (soa_.snapshot(next_idx)[port] >= soa_.fifo_depth()) {
      continue;
    }

    if (layout_.row_owner(next.y) == st.index) {
      cells_[next_idx].push_router(port, m);
      st.active.insert(next_idx);
    } else {
      // Another partition's row: a north or south hop across a block
      // boundary, which the block's owner applies behind the route
      // barrier (east and west hops stay in their row).
      (dir == Direction::kNorth ? st.north : st.south)
          .pushes.push_back({next_idx, static_cast<std::uint8_t>(port), m});
    }
    cell.pop_input(src);
    used_out[d] = true;
    ++st.stats.hops;
  }
  soa_.advance_arb(idx);
}

void Chip::cycle_settle(PartitionState& st) {
  cycle_apply(st);
  cycle_io(st);
  cycle_compute(st);
}

void Chip::cycle_apply(PartitionState& st) {
  // Inbound cross-partition pushes: the south box of the partition that
  // owns the blocks just above this one's (index−1 mod P), then the north
  // box of the one that owns the blocks just below (index+1 mod P); at
  // P = 2 both are the other partition's boxes. Every port FIFO receives
  // at most one message per cycle (single writer + used_out), so
  // application order cannot matter; this one is fixed all the same.
  const auto parts = static_cast<std::uint32_t>(parts_.size());
  if (parts == 1) return;
  const auto drain = [&](PartitionState::Outbox& box) {
    for (const PendingPush& p : box.pushes) {
      cells_[p.target_cc].push_router(p.port, p.msg);
      st.active.insert(p.target_cc);
    }
    box.pushes.clear();
  };
  drain(parts_[(st.index + parts - 1) % parts].south);
  drain(parts_[(st.index + 1) % parts].north);
}

void Chip::cycle_io(PartitionState& st) {
  for (const std::size_t i : st.io_cells) {
    IoCell& ioc = io_.cell(i);
    if (ioc.pending.empty()) continue;
    ComputeCell& cc = cells_[ioc.attached_cc];
    if (!cc.io_in().has_room()) continue;
    cc.push_io(Message{ioc.pending.front(), cycle_});
    st.active.insert(ioc.attached_cc);
    ioc.pending.pop_front();
    ++st.stats.io_injections;
  }
}

void Chip::cycle_compute(PartitionState& st) {
  const bool tracing = trace_.enabled();

  // Cells activated since the route phase began (same-partition router
  // pushes, inbound applies, IO injections) already carry their flag, so
  // the active sweep visits exactly the cells the scan finds live, in the
  // same ascending order. The compute phase never activates a cell other
  // than the one executing (propagate/schedule_local target the executing
  // cell), so no flag appears ahead of the sweep.
  sweep(st, [&](std::uint32_t idx) {
    if (!compute_one(st, idx, tracing)) {
      // A cell idle all cycle (only the scan visits one) keeps the zero
      // latch it took when it last went idle.
      if (!st.active.contains(idx)) return;
      st.active.erase(idx);
    }
    // The router lanes are final for this cycle: only ROUTE and APPLY
    // write them, both earlier and both on this partition. So this latch
    // is the next ROUTE's phase-start view; an emptied cell latches zeros.
    soa_.latch_snapshot(idx);
  });
}

bool Chip::compute_one(PartitionState& st, std::uint32_t idx, bool tracing) {
  ComputeCell& cell = cells_[idx];
  bool did_op = false;
  if (cell.busy() > 0) {
    // Finishing the instruction cycles of the current action.
    cell.dec_busy();
    did_op = true;
  } else if (cell.staged_count() != 0) {
    // Staging one created message into the network (one op).
    if (cell.local_out().has_room()) {
      cell.push_local_out(cell.front_staged());
      cell.pop_staged();
      ++st.stats.messages_staged;
      did_op = true;
    } else {
      ++st.stats.stage_stalls;  // backpressure: network outport full
    }
  } else if (cell.task_count() != 0) {
    const rt::Action a = cell.front_task();
    cell.pop_task();
    if (a.target.cc != cell.index() && !a.target.is_null()) {
      // A drained future closure whose patched target lives elsewhere —
      // the closure's body is a propagate (paper Listing 6 line 23-26),
      // so running it converts the task into an outbound message.
      cell.push_staged(Message{a, cycle_});
    } else {
      execute_action(st, cell, a);
    }
    did_op = true;
  } else if (cell.action_count() != 0) {
    const rt::Action a = cell.front_action();
    cell.pop_action();
    execute_action(st, cell, a);
    did_op = true;
  }

  if (did_op) ++cell_load_[idx];
  const bool live = cell.has_work();
  if (tracing) {
    if (did_op) ++st.trace_active;
    if (did_op || live) ++st.trace_live;
  }
  return live;
}

void Chip::merge_partitions() {
  std::uint32_t active = 0, live = 0;
  for (PartitionState& st : parts_) {
    active += std::exchange(st.trace_active, 0);
    live += std::exchange(st.trace_live, 0);
  }
  ++cycle_;
  if (trace_.enabled()) trace_.record(active, live);
  // Checked build, full level: sweep every structural invariant at this
  // barrier point. This step runs on partition 0's thread while all other
  // workers are parked at the cycle barrier (their writes are published by
  // the arrival that admitted us here), so reading every cell and
  // partition is race-free.
  if (check_level_ == rt::CheckLevel::full) verify_cycle_invariants();
}

void Chip::verify_cycle_invariants() const {
  for (const PartitionState& st : parts_) {
    // 1. Per-cell: the cached counter equals real lane occupancy, the
    //    packed hot word sums exactly the containers it caches, the
    //    owner's bitmap holds the cell exactly when it has work (the
    //    invariant every active sweep trusts when it skips a cell, and
    //    quiescent() reads), and the latches equal the router-lane sizes
    //    the next ROUTE starts from.
    std::uint64_t owned_bits = 0;
    for (const auto [begin, end] : layout_.blocks(st.index)) {
      for (std::uint32_t i = begin; i < end; ++i) {
        const ComputeCell& c = cells_[i];
        CCA_CHECK(full, c.fifo_msgs() == c.router_occupancy());
        CCA_CHECK(full, soa_.work_items(i) ==
                            c.fifo_msgs() + c.staged_count() + c.task_count() +
                                c.action_count());
        CCA_CHECK(full, st.active.contains(i) == c.has_work());
        for (std::size_t d = 0; d < kMeshDirections; ++d) {
          CCA_CHECK(full, soa_.snapshot(i)[d] == c.router_in(d).size());
        }
        owned_bits += st.active.contains(i) ? 1 : 0;
      }
    }
    // 2. The bitmap is exact: a clear summary bit lets a sweep skip its
    //    word's 64 cells unread, no summary bit outlives its word's last
    //    cell, no bit lies outside its span, and the size is the
    //    popcount. And every set bit is an owned cell's: a bit on a row
    //    of another partition's block, between this one's, would run that
    //    cell on two workers.
    CCA_CHECK(full, st.active.exact());
    CCA_CHECK(full, owned_bits == st.active.size());
    // 3. Cross-partition plumbing drained: the consumers' APPLY emptied
    //    both outboxes.
    CCA_CHECK(full, st.north.pushes.empty() && st.south.pushes.empty());
  }
}

void Chip::execute_action(PartitionState& st, ComputeCell& cell,
                          const rt::Action& action) {
  const rt::Handler* handler = registry_.find(action.handler);
  if (handler == nullptr) {
    ++st.stats.faults;
    return;
  }
  CellContext ctx(*this, st, cell);
  try {
    (*handler)(ctx, action);
  } catch (const std::exception& e) {
    // A throwing handler is a fault, not a crash: letting the exception
    // escape the cycle loop would strand the other partition workers at
    // the phase barrier (and ~PartitionPool in join) — a deadlock instead
    // of an error. The same action throws identically under every
    // partitioning, so the fault count stays deterministic.
    ++st.stats.faults;
    // atomic: handlers on different partition workers may throw in the
    // same compute phase.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "ccastream: handler '%.*s' threw (%s); counted as fault\n",
                   static_cast<int>(registry_.name(action.handler).size()),
                   registry_.name(action.handler).data(), e.what());
    }
    return;
  } catch (...) {
    ++st.stats.faults;
    return;
  }
  ++st.stats.actions_executed;
  const std::uint32_t cost = cfg_.action_base_cost + ctx.charged();
  st.stats.instructions += cost;
  if (st.profile.size() <= action.handler) {
    st.profile.resize(action.handler + 1);
  }
  ++st.profile[action.handler].executions;
  st.profile[action.handler].instructions += cost;
  cell.set_busy(cost > 0 ? cost - 1 : 0);  // this cycle was the first
}

std::optional<rt::GlobalAddress> Chip::allocate_on(ChipStats& stats,
                                                   std::uint32_t cc,
                                                   rt::ObjectKind kind) {
  const auto it = factories_.find(kind);
  if (it == factories_.end()) {
    ++stats.faults;
    return std::nullopt;
  }
  const auto slot = cells_[cc].arena.insert(it->second());
  if (!slot) return std::nullopt;
  ++stats.allocations;
  return rt::GlobalAddress{cc, *slot};
}

void Chip::handle_allocate(rt::Context& ctx, const rt::Action& action) {
  const rt::Word w0 = action.args[0];
  const auto kind = static_cast<rt::ObjectKind>(w0 & 0xFFFFu);
  const auto budget = static_cast<std::uint32_t>((w0 >> 16) & 0xFFFFu);
  const auto reply_handler = static_cast<rt::HandlerId>((w0 >> 32) & 0xFFFFu);
  const rt::GlobalAddress reply_to = rt::GlobalAddress::unpack(action.args[1]);
  const rt::Word tag = action.args[2];

  // The action runs at its target cell, on the partition that owns it.
  const std::uint32_t cc = action.target.cc;
  ChipStats& stats = parts_[layout_.owner(cc)].stats;
  ctx.charge(2);
  if (const auto addr = allocate_on(stats, cc, kind)) {
    // Success: fire the return trigger carrying the new address (paper
    // Figure 3, steps 1-2).
    ctx.propagate(rt::make_action(reply_handler, reply_to, addr->pack(), tag));
    return;
  }
  if (budget > 0) {
    // Scratchpad full here — bounce the request to the next cell on the
    // chip (linear probe) with a decremented hop budget.
    ++stats.alloc_forwards;
    const std::uint32_t next_cc = (cc + 1) % mesh_.cell_count();
    ctx.propagate(make_allocate_action(next_cc, kind, budget - 1, reply_handler,
                                       reply_to, tag));
    return;
  }
  // Budget exhausted: report failure with a null address so the requester's
  // future is fulfilled with null and the application can surface the error.
  ++stats.alloc_failures;
  ctx.propagate(rt::make_action(reply_handler, reply_to, rt::kNullAddress.pack(), tag));
}

std::vector<std::uint8_t> Chip::activity_levels() const {
  std::vector<std::uint8_t> levels(cells_.size(), 0);
  for (std::uint32_t i = 0; i < cells_.size(); ++i) {
    const ComputeCell& c = cells_[i];
    // Heuristic brightness: executing > staging > routing > queued.
    std::uint32_t level = 0;
    if (c.busy() > 0) level += 96;
    level += 24 * std::min<std::uint32_t>(4, c.router_occupancy());
    level += 16 * std::min<std::size_t>(4, c.staged_count());
    level += 8 * std::min<std::size_t>(4, c.action_count() + c.task_count());
    levels[i] = static_cast<std::uint8_t>(std::min<std::uint32_t>(255, level));
  }
  return levels;
}

}  // namespace ccastream::sim
