// The AM-CCA chip: a mesh of compute cells, border IO channels, a handler
// registry, and the cycle-level execution loop implementing the paper's
// timing rules (§4):
//   * one message traverses one link per cycle (single-flit messages);
//   * each compute cell performs one operation per cycle — an action
//     instruction or the staging of one propagated message;
//   * YX dimension-ordered (turn-restricted, minimal, deadlock-free)
//     routing by default;
//   * each IO cell injects at most one action per cycle.
//
// The chip also implements the runtime side of the continuation protocol
// (paper §3.1): the `allocate` system action runs at a remote cell, places
// an object in its arena, and propagates the registered return-trigger
// action back to the requester.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "runtime/action.hpp"
#include "runtime/alloc_policy.hpp"
#include "runtime/arena.hpp"
#include "runtime/check.hpp"
#include "runtime/context.hpp"
#include "runtime/geometry.hpp"
#include "runtime/handler_registry.hpp"
#include "sim/active_set.hpp"
#include "sim/cell_soa.hpp"
#include "sim/compute_cell.hpp"
#include "sim/energy.hpp"
#include "sim/fifo.hpp"
#include "sim/io_channel.hpp"
#include "sim/message.hpp"
#include "sim/parallel.hpp"
#include "sim/partition.hpp"
#include "sim/routing.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace ccastream::sim {

/// Which cycle engine executes the chip. Both engines are cycle-for-cycle
/// identical — same cycles, counters, energy, traces, results — for every
/// workload, partition, and thread count; they differ only in the
/// cells a stage's sweep visits, and so in host cost per simulated cycle.
/// Both keep each partition's activity bitmap (sim/active_set.hpp): a
/// cell's bit is set at every point work is created and cleared when the
/// compute stage leaves it idle, so it is set iff the cell has work (see
/// ComputeCell::has_work).
///
///   * kScan   — the paper-literal engine: every sweep walks every cell of
///               its partition's blocks without reading the bitmap,
///               costing O(width × height) per cycle regardless of how
///               much of the mesh is doing anything. Kept as the in-tree
///               oracle the active engine is pinned against
///               (CCASTREAM_ENGINE=scan).
///   * kActive — the event-driven engine, and the default: every sweep
///               visits the set bits of its partition's bitmap in
///               ascending cell-index order, skipping idle 64-cell words
///               through the bitmap's one-bit-per-word summary level, so a
///               cycle costs O(live words + span / 4096) instead of
///               O(mesh) — the win on sparse frontiers (see
///               bench_active_set and the `cell_visits` metric) — while a
///               saturated mesh costs one word sweep of the same cells the
///               scan engine walks.
enum class EngineKind : std::uint8_t { kScan, kActive };

[[nodiscard]] std::string_view to_string(EngineKind engine) noexcept;

/// Parses "scan" or "active"; nullopt otherwise.
[[nodiscard]] std::optional<EngineKind> parse_engine(std::string_view text);

/// Resolves a chip's engine request: an explicit config wins, otherwise the
/// CCASTREAM_ENGINE environment variable (ignored with a one-shot warning
/// when unparsable), otherwise the event-driven active-set engine. The
/// full-scan oracle stays one env var away: CCASTREAM_ENGINE=scan.
[[nodiscard]] EngineKind resolve_engine(
    const std::optional<EngineKind>& requested);

/// Static configuration of a chip instance.
struct ChipConfig {
  std::uint32_t width = 32;            ///< Mesh columns (paper: 32).
  std::uint32_t height = 32;           ///< Mesh rows (paper: 32).
  std::uint32_t fifo_depth = 4;        ///< Router port buffer depth (messages).
  RoutingPolicyKind routing = RoutingPolicyKind::kYX;
  /// North + south channels co-design with YX routing: an injected
  /// message's first (vertical) leg runs down its own column, so all
  /// `width` columns share the injection load. West/east channels with YX
  /// routing funnel everything through two border columns — measurably
  /// ~10x slower ingestion (see bench_ablation_structure).
  std::uint8_t io_sides = kIoNorth | kIoSouth;
  std::size_t cc_memory_bytes = 1u << 20;  ///< Scratchpad capacity per cell.
  std::uint32_t action_base_cost = 2;  ///< Instruction cycles per dispatched action.
  std::uint32_t ejections_per_cycle = 2;  ///< Router->cell deliveries per cycle.
  std::uint32_t alloc_forward_budget = 32;  ///< Hops an allocate may bounce on full arenas.
  rt::AllocPolicyKind alloc_policy = rt::AllocPolicyKind::kVicinity;
  std::uint32_t vicinity_radius = 2;   ///< Paper: ghosts at most 2 hops away.
  EnergyModel energy{};
  std::uint64_t seed = 0xC0FFEEull;
  bool record_activation = false;      ///< Record Figure 6/7 activation trace.
  /// Worker threads for the partitioned parallel engine, one per
  /// partition of block-cyclic rows (see sim/partition.hpp). 0 resolves
  /// from the CCASTREAM_THREADS environment variable (defaulting to 1 =
  /// serial); always clamped to the mesh height (each worker owns at least
  /// one row). Results are cycle-for-cycle identical for every thread count.
  std::uint32_t threads = 0;
  /// Read by nothing; kept only because benchmark/ccbench.cpp assigns it.
  std::optional<PartitionSpec> partition;
  /// Cycle engine (see EngineKind). nullopt resolves from the
  /// CCASTREAM_ENGINE environment variable, defaulting to the event-driven
  /// active-set engine (the full-scan oracle stays selectable with
  /// CCASTREAM_ENGINE=scan). A performance knob only: both engines are
  /// cycle-for-cycle identical.
  std::optional<EngineKind> engine;
  /// Runtime verification level of the checked build (see
  /// runtime/check.hpp): off (default) compiles the checks to untaken
  /// branches, cheap cross-checks the cached fifo_msgs counter at every
  /// sanctioned FIFO mutation, full additionally sweeps every
  /// engine-structure invariant (membership == has_work, counters, outbox
  /// drain, bits only on owned rows) at the end of every cycle. nullopt
  /// resolves from the CCASTREAM_CHECK environment variable (CLI
  /// `--check`).
  /// Verification never changes results — only host cost.
  std::optional<rt::CheckLevel> check_level;
};

/// Resolves a requested thread count: 0 reads CCASTREAM_THREADS (a whole
/// count >= 1, clamped to 4096; anything else is ignored with a one-shot
/// warning), defaulting to 1.
[[nodiscard]] std::uint32_t resolve_threads(std::uint32_t requested) noexcept;

/// Per-handler profile entry: how often one handler ran and the
/// instruction cycles it cost (see Chip::handler_profile).
struct HandlerProfile {
  std::uint64_t executions = 0;
  std::uint64_t instructions = 0;
};

/// Creates arena objects for the allocate system action, per object kind.
using ObjectFactory = std::function<std::unique_ptr<rt::ArenaObject>()>;

class Chip {
 public:
  static constexpr std::uint64_t kNoLimit = ~0ull;

  explicit Chip(ChipConfig cfg = {});

  // A chip never relocates: the SoA block, the FIFO lane views, the row
  // pools and the partition workers all hold raw pointers and cell indices
  // into storage reserved exactly once, from the ChipConfig dimensions, in
  // the constructor. Callers that need to hand a chip around hold it behind
  // unique_ptr (as the bench/test experiment harness does).
  Chip(const Chip&) = delete;
  Chip& operator=(const Chip&) = delete;
  Chip(Chip&&) = delete;
  Chip& operator=(Chip&&) = delete;

  // --- Setup (host side, not simulated) -----------------------------------

  /// Handler table; register application actions here before running.
  [[nodiscard]] rt::HandlerRegistry& handlers() noexcept { return registry_; }

  /// Registers the factory the allocate system action uses for `kind`.
  void register_object_kind(rt::ObjectKind kind, ObjectFactory factory);

  /// Places an object directly into cell `cc`'s arena (initial vertex
  /// placement happens host-side, before simulated time starts). Returns
  /// nullopt if the scratchpad is full.
  std::optional<rt::GlobalAddress> host_allocate(std::uint32_t cc,
                                                 std::unique_ptr<rt::ArenaObject> obj);

  /// Host-side dereference of any address on the chip (inspection only).
  [[nodiscard]] rt::ArenaObject* deref(rt::GlobalAddress addr);
  template <typename T>
  [[nodiscard]] T* as(rt::GlobalAddress addr) {
    return static_cast<T*>(deref(addr));
  }

  /// Replaces the ghost-allocation policy (defaults from ChipConfig).
  void set_alloc_policy(std::unique_ptr<rt::AllocationPolicy> policy);
  [[nodiscard]] rt::AllocationPolicy& alloc_policy() noexcept { return *alloc_policy_; }

  // --- Work injection ------------------------------------------------------

  /// Queues an action on the IO channels (round-robin over IO cells); it
  /// will be injected at one action per IO cell per cycle.
  void io_enqueue(const rt::Action& action);

  /// Number of actions still queued in IO cells.
  [[nodiscard]] std::size_t io_pending() const noexcept { return io_.pending(); }

  /// Host backdoor: delivers an action straight into its target cell's
  /// dispatch queue (no network traversal). Used for seeding (e.g. the BFS
  /// source) and unit tests.
  void inject_local(const rt::Action& action);

  /// Host injection that *does* traverse the network, entering the mesh at
  /// cell `at_cc` (pays staging + hop costs like any propagated message).
  void inject_via(std::uint32_t at_cc, const rt::Action& action);

  // --- Execution ------------------------------------------------------------

  /// Advances simulated time by one cycle (network, IO, compute phases).
  void step();

  /// Runs until the diffusion terminates (global quiescence: no queued or
  /// in-flight actions, no busy cell, IO drained) or `max_cycles` elapse.
  /// Returns the number of cycles executed by this call. This is the
  /// `dev.run(terminator)` of paper Listing 1.
  std::uint64_t run_until_quiescent(std::uint64_t max_cycles = kNoLimit);

  /// True when no work of any kind remains anywhere on the chip.
  [[nodiscard]] bool quiescent() const;

  // --- Introspection ---------------------------------------------------------

  [[nodiscard]] const ChipConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const rt::MeshGeometry& geometry() const noexcept { return mesh_; }
  [[nodiscard]] std::uint64_t now() const noexcept { return cycle_; }
  /// The run's counters: the partition blocks summed in partition order,
  /// plus the cycle count. Read between run/step calls.
  [[nodiscard]] ChipStats stats() const;
  [[nodiscard]] ActivationTrace& activation() noexcept { return trace_; }
  [[nodiscard]] const ActivationTrace& activation() const noexcept { return trace_; }
  [[nodiscard]] ComputeCell& cell(std::uint32_t cc) { return cells_[cc]; }
  [[nodiscard]] const ComputeCell& cell(std::uint32_t cc) const { return cells_[cc]; }
  /// The struct-of-arrays hot cell state (see sim/cell_soa.hpp). Read-only
  /// introspection for tools; tests additionally use its corruption
  /// backdoors to prove the full-level invariant sweeps have teeth.
  [[nodiscard]] CellSoA& cell_state() noexcept { return soa_; }
  [[nodiscard]] const CellSoA& cell_state() const noexcept { return soa_; }
  /// The activity bitmap of the partition owning cell `cc` (see
  /// sim/active_set.hpp), for host-side use between cycles. Tests also use
  /// its corruption backdoors, as they do cell_state()'s.
  [[nodiscard]] ActiveSet& active_set(std::uint32_t cc) {
    return parts_[layout_.owner(cc)].active;
  }
  [[nodiscard]] IoSystem& io() noexcept { return io_; }

  /// Total energy of the run so far, in picojoules, under the configured
  /// energy model.
  [[nodiscard]] double energy_pj() const {
    return total_pj(cfg_.energy, stats().energy_events());
  }

  /// Per-cell activity levels (0..255) for animation frames; a heuristic
  /// blend of router occupancy, execution state, and queued work.
  [[nodiscard]] std::vector<std::uint8_t> activity_levels() const;

  /// Cumulative operations performed by each cell (compute-phase ops:
  /// instruction cycles, stagings, dispatches). The spatial load histogram
  /// behind congestion heatmaps; identical for every thread count (it
  /// counts simulated work).
  [[nodiscard]] const std::vector<std::uint64_t>& cell_load() const noexcept {
    return cell_load_;
  }

  /// Per-handler execution profile, summed over the partitions; entries
  /// index by HandlerId, up to the highest id that has run.
  [[nodiscard]] std::vector<HandlerProfile> handler_profile() const;

  /// The resolved cycle engine of this chip instance (config, else
  /// CCASTREAM_ENGINE, else active).
  [[nodiscard]] EngineKind engine() const noexcept { return engine_; }

  /// The resolved check level of this chip instance (config, else
  /// CCASTREAM_CHECK, else off).
  [[nodiscard]] rt::CheckLevel check_level() const noexcept {
    return check_level_;
  }

  /// Cells visited by the two per-cell phase sweeps (route, compute) over
  /// the whole run — the host-cost metric the engines differ in. The scan
  /// engine visits every cell of the mesh in each sweep, 2 × width ×
  /// height per cycle. The active engine visits the set bits of each
  /// partition's activity bitmap: each cell active at a sweep's start,
  /// plus any a route push flags in a word the sweep has not reached yet
  /// (see ActiveSet::for_each). The count is deterministic for a given
  /// configuration. Simulated results are engine-invariant; this counter
  /// is deliberately *outside* ChipStats so stats comparisons stay
  /// engine-agnostic. Summed over the partitions when read.
  [[nodiscard]] std::uint64_t cell_visits() const noexcept;

  /// Live cells across all partitions right now: the summed sizes of the
  /// partitions' activity bitmaps, O(partitions) under both engines.
  [[nodiscard]] std::uint64_t active_cells() const noexcept;

  /// Message slots held by all the row pools, free or in use: each pool
  /// holds its row's peak live lane and queue messages so far, rounded up
  /// to a block. A hop across a block boundary between two partitions
  /// takes its slot a stage later than one inside a partition, so like
  /// cell_visits() this count is outside ChipStats: it moves with the
  /// thread count, while simulated results do not.
  [[nodiscard]] std::uint64_t message_slots() const noexcept;

  /// Barrier arrivals performed by the worker pool so far (0 on
  /// single-partition chips). A pooled cycle costs three per partition; a
  /// cycle on the sparse serial path (see run_cycles) costs none, so this
  /// counter makes the switch between the two observable.
  [[nodiscard]] std::uint64_t barrier_syncs() const noexcept {
    return pool_ ? pool_->syncs() : 0;
  }

  /// Resolved worker count of this chip instance (one worker per
  /// partition).
  [[nodiscard]] std::uint32_t threads() const noexcept {
    return layout_.parts();
  }

  /// Resolved partition count (== threads(): one worker per partition).
  [[nodiscard]] std::uint32_t partitions() const noexcept {
    return layout_.parts();
  }

  /// The block-cyclic decomposition, fixed at construction.
  [[nodiscard]] const PartitionLayout& partition_layout() const noexcept {
    return layout_;
  }

 private:
  friend class CellContext;

  /// Current check level for the CCA_CHECK macro (see runtime/check.hpp).
  [[nodiscard]] rt::CheckLevel cca_check_level() const noexcept {
    return check_level_;
  }

  /// One deferred cross-partition router push (applied behind a barrier so
  /// no FIFO lane is ever touched by two threads in the same phase).
  struct PendingPush {
    std::uint32_t target_cc = 0;
    std::uint8_t port = 0;  ///< Router port (CellSoA lane index).
    Message msg;
  };

  /// In-place storage of the mesh's ComputeCells. Cells are neither
  /// copyable nor movable (their identity is baked into the SoA block and
  /// the partition structures), so the array is raw aligned storage built
  /// exactly once — from the ChipConfig dimensions, in the Chip
  /// constructor — with every cell constructed in place. There is no
  /// growth, shrink, or relocation path by design.
  class CellArray {
   public:
    CellArray() = default;
    CellArray(const CellArray&) = delete;
    CellArray& operator=(const CellArray&) = delete;
    ~CellArray() {
      for (std::uint32_t i = count_; i > 0; --i) cells_[i - 1].~ComputeCell();
      ::operator delete[](static_cast<void*>(cells_),
                          std::align_val_t{alignof(ComputeCell)});
    }

    /// Constructs `count` cells in place; `make(slot, i)` must
    /// placement-new cell `i` into `slot`. Callable exactly once.
    template <typename MakeFn>
    void build(std::uint32_t count, MakeFn&& make) {
      if (cells_ != nullptr) {
        rt::fatal_misuse("CellArray::build called twice", __FILE__, __LINE__);
      }
      cells_ = static_cast<ComputeCell*>(::operator new[](
          static_cast<std::size_t>(count) * sizeof(ComputeCell),
          std::align_val_t{alignof(ComputeCell)}));
      for (count_ = 0; count_ < count; ++count_) make(cells_ + count_, count_);
    }

    [[nodiscard]] ComputeCell& operator[](std::size_t i) noexcept {
      return cells_[i];
    }
    [[nodiscard]] const ComputeCell& operator[](std::size_t i) const noexcept {
      return cells_[i];
    }
    [[nodiscard]] std::uint32_t size() const noexcept { return count_; }

   private:
    ComputeCell* cells_ = nullptr;
    std::uint32_t count_ = 0;
  };

  /// One mesh partition (its blocks are layout_.blocks(index)) plus every
  /// counter its worker thread writes. The counters are pure sums, summed
  /// in partition order when read, so the totals are independent of the
  /// partition count; only the trace pair is per cycle.
  struct alignas(64) PartitionState {
    std::uint32_t index = 0;
    std::vector<std::size_t> io_cells;  ///< IO cells attached to owned cells.
    ChipStats stats;  ///< `cycles` stays 0; block 0 counts host injections.
    std::vector<HandlerProfile> profile;  ///< Indexed by HandlerId.
    std::uint32_t trace_active = 0, trace_live = 0;  ///< This cycle's sample.
    /// Router pushes leaving the partition. Only a north or south hop
    /// across a block boundary leaves it: into the block above, owned by
    /// partition index−1 mod P (`north`), or the block below, owned by
    /// index+1 mod P (`south`). That owner is the box's one consumer and
    /// applies it behind the route barrier. Each box is cache-line padded:
    /// in APPLY the two consumers clear them concurrently. A box grows on
    /// demand; reserving each to its bound (width × blocks) when the chip
    /// is built put ccbench's mesh_sparse peak RSS at 39.9 MiB on 17 of 18
    /// runs, against 35.1-35.2 MiB on all 18 without.
    struct alignas(64) Outbox {
      std::vector<PendingPush> pushes;
    };
    Outbox north, south;

    /// The activity bitmap over the span from the partition's first owned
    /// cell to the end of its last block. Invariant between cycles:
    /// exactly the owned cells for which ComputeCell::has_work() holds;
    /// the rows of other partitions' blocks in between stay clear. A bit
    /// is set at every point work is created — a same-partition router
    /// push, an inbound apply, an IO injection, a host injection — and
    /// cleared when COMPUTE leaves the cell idle. Only this partition's
    /// worker writes it, or the host between cycles. Its size is read by
    /// quiescent(), active_cells() and the sparse serial fast path, so
    /// none of them sweeps the mesh.
    ActiveSet active;
    /// Cells visited by the per-cell sweeps (route, compute).
    std::uint64_t cell_visits = 0;
  };

  /// The cycle loop: runs up to `max_cycles` cycles (optionally stopping
  /// at global quiescence) and returns how many were executed. Each cycle
  /// runs one stage table (ROUTE, SETTLE) and one end-of-cycle step
  /// (count, trace sample, stop decision), either phase-major on the
  /// calling thread or on the pool with a barrier after each stage and
  /// after the end-of-cycle step.
  std::uint64_t run_cycles(std::uint64_t max_cycles, bool until_quiescent);

  // The cycle's stages (worker-thread side), each over one partition's
  // cells. The per-cell sweeps run the same per-cell bodies
  // (route_cell/compute_one) under both engines, which is what makes the
  // two engines trivially cycle-identical.
  void cycle_route(PartitionState& st);
  /// APPLY, IO and COMPUTE, back to back: each writes only its own
  /// partition's cells, and the one cross-partition state any of them
  /// reads (the outboxes APPLY drains) was settled behind the ROUTE
  /// barrier.
  void cycle_settle(PartitionState& st);
  void cycle_apply(PartitionState& st);
  void cycle_io(PartitionState& st);
  void cycle_compute(PartitionState& st);
  /// The one place the engines differ: calls `f(idx)` in ascending cell
  /// index for every cell of `st`'s blocks (scan, never reading the
  /// bitmap) or for every set bit of `st.active` (active). Bills each
  /// visit to cell_visits.
  template <typename F>
  void sweep(PartitionState& st, F&& f);
  /// End-of-cycle step (single-threaded, behind the barrier): counts the
  /// cycle, samples the activation trace and runs the full-level audit.
  void merge_partitions();
  /// Full-level barrier-point sweep (CCASTREAM_CHECK=full), run at the end
  /// of every cycle while the worker pool is parked at the cycle barrier:
  /// verifies the invariants the lint cannot see statically — every cell's
  /// cached fifo_msgs equals its real FIFO occupancy, its owner's bitmap
  /// holds it exactly when has_work(), its latches equal its router-lane
  /// sizes, every partition's bitmap is exact (ActiveSet::exact) and holds
  /// bits only for cells the partition owns, and all cross-partition
  /// outboxes are drained. O(mesh) per cycle by design, under both
  /// engines; a failure aborts via CCA_CHECK.
  void verify_cycle_invariants() const;

  // Shared per-cell phase bodies.
  void route_cell(PartitionState& st, std::uint32_t idx, bool adaptive);
  /// One compute-phase visit; returns whether the cell still has work
  /// (its activity bit stays set iff it does).
  bool compute_one(PartitionState& st, std::uint32_t idx, bool tracing);

  void execute_action(PartitionState& st, ComputeCell& cell, const rt::Action& action);
  void deliver(PartitionState& st, ComputeCell& cell, const Message& msg);
  /// Handler body of the allocate system action.
  void handle_allocate(rt::Context& ctx, const rt::Action& action);
  std::optional<rt::GlobalAddress> allocate_on(ChipStats& stats, std::uint32_t cc,
                                               rt::ObjectKind kind);

  ChipConfig cfg_;
  rt::MeshGeometry mesh_;
  PartitionLayout layout_;
  /// The struct-of-arrays hot cell state; initialized (and its slab
  /// reserved) before the cells are built, since every cell holds a
  /// pointer to it.
  CellSoA soa_;
  /// One slot pool per mesh row, holding every message the row's lanes and
  /// queues buffer (see sim/fifo.hpp). A row belongs to one partition for
  /// the chip's life, so each pool has one writer at a time: the row's
  /// owner, or the host between cycles.
  std::vector<SlotPool> pools_;
  CellArray cells_;
  rt::HandlerRegistry registry_;
  std::unordered_map<rt::ObjectKind, ObjectFactory> factories_;
  std::unique_ptr<rt::AllocationPolicy> alloc_policy_;
  IoSystem io_;
  ActivationTrace trace_;
  std::uint64_t cycle_ = 0;
  std::vector<std::uint64_t> cell_load_;
  EngineKind engine_ = EngineKind::kScan;
  /// engine_ == kActive, hoisted: read by sweep(), once per sweep.
  bool engine_active_ = false;
  /// Resolved runtime-verification level (see resolve_check_level); read
  /// by the CCA_CHECK macro via cca_check_level() below.
  rt::CheckLevel check_level_ = rt::CheckLevel::off;
  std::vector<PartitionState> parts_;
  std::unique_ptr<PartitionPool> pool_;  ///< Created only with 2+ partitions.
};

}  // namespace ccastream::sim
