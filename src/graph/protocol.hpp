// The streaming-graph action protocol: insert-edge-action (paper Listings
// 4 & 6), the ghost allocation return trigger (paper Figure 3), ghost
// initialisation, and delete-edge-action (the sliding-window / expiry
// extension). Applications plug in through AppHooks, which is how
// `insert-edge-action` chains into `bfs-action` ("inform the dst vertex
// about this new edge only if this src vertex has a valid level").
//
// Deletion semantics: the stored graph is an observation multiset (every
// insert appends a record), so `delete-edge-action` removes EVERY record
// matching the destination root along the whole fragment chain — it is
// forwarded down every ghost branch unconditionally, which makes the
// "delete all matches" contract safe under ghost fan-out > 1. Deletions
// require rhizomes == 1 (StreamingGraph enforces this): with multiple
// roots a record's destination address depends on round-robin targeting
// and cannot be matched on-cell.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/fragment.hpp"
#include "graph/stream_edge.hpp"
#include "runtime/action.hpp"
#include "runtime/context.hpp"
#include "sim/chip.hpp"

namespace ccastream::graph {

class StreamingGraph;  // host-side builder (graph/builder.hpp)

/// Object kind of VertexFragment in the chip's allocate factory table.
inline constexpr rt::ObjectKind kFragmentKind = 1;

/// Application integration points invoked by the graph protocol. All hooks
/// run *on-cell*, inside the action that triggered them, and may charge
/// cycles and propagate further actions (the diffusion).
struct AppHooks {
  /// After an edge lands in `frag`'s edge list. The BFS hook propagates
  /// bfs-action(edge.dst, level + 1) when frag's level is valid (Listing 4).
  std::function<void(rt::Context&, VertexFragment& frag, const EdgeRecord&)>
      on_edge_inserted;

  /// After `frag`'s ghost future fulfils with a freshly allocated fragment.
  /// Apps use this to push current state down the new chain link (the BFS
  /// hook forwards its level so edges already queued at the ghost diffuse).
  std::function<void(rt::Context&, VertexFragment& frag, rt::GlobalAddress ghost)>
      on_ghost_linked;

  /// Host-side deletion repair, run by StreamingGraph::stream_increment for
  /// increments containing delete ops (see its header comment for the full
  /// phase protocol). Both callbacks run host-side between quiescent chip
  /// runs and inject repair actions through the IO channels.
  struct HostDeletionRepair {
    /// Phase I seed: called after the increment's structural ops have
    /// quiesced (with on-cell hooks suppressed, so app state is still
    /// pre-increment). Injects invalidation actions for the batch's delete
    /// ops; returns true if anything was injected (phase R then re-seeds
    /// every settled vertex instead of just the increment's insert sources).
    std::function<bool(class StreamingGraph&, std::span<const StreamEdge>)> invalidate;
    /// Phase R seed: called after invalidation quiesced. Injects re-settle
    /// kicks; the chip then diffuses to the monotone fixed point.
    std::function<void(class StreamingGraph&, std::span<const StreamEdge>,
                       bool invalidated)>
        resettle;
  };
  HostDeletionRepair host_repair;

  /// Initial application state for fragments created by the allocator
  /// (ghosts) and, by default, for roots.
  AppState ghost_init{};
};

/// Counters specific to the graph protocol (chip-wide counters live in
/// sim::ChipStats). The protocol accumulates one block per engine
/// partition — handlers bump only their own partition's plain counters,
/// the same contention-free pattern the chip uses for ChipStats — and
/// GraphProtocol::stats() sums the blocks on demand. Every field is a
/// pure sum, so the totals are deterministic for any thread count.
struct ProtocolStats {
  std::uint64_t edges_inserted = 0;    ///< Edge records physically appended.
  std::uint64_t inserts_forwarded = 0; ///< Inserts sent down a ready ghost link.
  std::uint64_t inserts_deferred = 0;  ///< Inserts parked on a pending future.
  std::uint64_t edges_deleted = 0;     ///< Edge records physically removed.
  std::uint64_t deletes_forwarded = 0; ///< Deletes sent down ready ghost links.
  std::uint64_t deletes_deferred = 0;  ///< Deletes parked on a pending future.
  std::uint64_t deletes_unmatched = 0; ///< Deletes that died at the end of a
                                       ///< chain branch with no local match
                                       ///< (per-fragment events, not per-op:
                                       ///< fan-out > 1 can terminate several
                                       ///< branches for one delete op).
  std::uint64_t ghost_allocs_started = 0;
  std::uint64_t ghost_links_made = 0;
  std::uint64_t ghost_alloc_failures = 0;  ///< Future fulfilled with null.
  std::uint64_t bad_targets = 0;       ///< Actions whose target didn't resolve.
};

/// Registers and owns the graph handlers on a chip. One protocol instance
/// per chip; hooks may be swapped between runs (e.g. ingestion-only vs
/// ingestion+BFS experiments).
class GraphProtocol {
 public:
  explicit GraphProtocol(sim::Chip& chip, RpvoConfig cfg = {});

  GraphProtocol(const GraphProtocol&) = delete;
  GraphProtocol& operator=(const GraphProtocol&) = delete;

  /// Installs (or replaces) the application hooks. Pass a default-
  /// constructed AppHooks to run ingestion-only.
  void set_hooks(AppHooks hooks) { hooks_ = std::move(hooks); }
  [[nodiscard]] const AppHooks& hooks() const noexcept { return hooks_; }

  /// Temporarily silences the on-cell hooks (on_edge_inserted /
  /// on_ghost_linked) without discarding them. The deletion-repair phases
  /// use this to stream structural ops over frozen application state.
  /// Host-side only, between runs — never toggle while the chip is
  /// executing.
  void set_hooks_suppressed(bool s) noexcept { hooks_suppressed_ = s; }
  [[nodiscard]] bool hooks_suppressed() const noexcept { return hooks_suppressed_; }

  [[nodiscard]] const RpvoConfig& rpvo_config() const noexcept { return cfg_; }
  [[nodiscard]] rt::HandlerId insert_handler() const noexcept { return h_insert_; }
  [[nodiscard]] rt::HandlerId delete_handler() const noexcept { return h_delete_; }
  /// Aggregated protocol counters (sum over the per-partition blocks).
  /// Call host-side, between runs.
  [[nodiscard]] ProtocolStats stats() const noexcept;
  [[nodiscard]] sim::Chip& chip() noexcept { return chip_; }

  /// Builds the insert-edge-action for an edge whose endpoints have been
  /// translated to root fragment addresses.
  [[nodiscard]] rt::Action make_insert(rt::GlobalAddress src_root,
                                       rt::GlobalAddress dst_root,
                                       std::uint32_t weight) const {
    return rt::make_action(h_insert_, src_root, dst_root.pack(),
                           static_cast<rt::Word>(weight));
  }

  /// Builds the delete-edge-action: removes every (src, dst) record along
  /// src's fragment chain. w1 mirrors the insert shape (unused in matching).
  [[nodiscard]] rt::Action make_delete(rt::GlobalAddress src_root,
                                       rt::GlobalAddress dst_root) const {
    return rt::make_action(h_delete_, src_root, dst_root.pack(), rt::Word{0});
  }

 private:
  void handle_insert(rt::Context& ctx, const rt::Action& a);
  void handle_delete(rt::Context& ctx, const rt::Action& a);
  void handle_ghost_reply(rt::Context& ctx, const rt::Action& a);
  void handle_init_ghost(rt::Context& ctx, const rt::Action& a);

  /// One per engine partition, cache-line separated so concurrent handlers
  /// on different partitions never share a written line.
  struct alignas(64) StatsBlock {
    ProtocolStats s;
  };
  [[nodiscard]] ProtocolStats& partition_stats(const rt::Context& ctx) {
    return blocks_[ctx.partition() % blocks_.size()].s;
  }

  sim::Chip& chip_;
  RpvoConfig cfg_;
  AppHooks hooks_;
  std::vector<StatsBlock> blocks_;
  bool hooks_suppressed_ = false;
  rt::HandlerId h_insert_ = 0;
  rt::HandlerId h_delete_ = 0;
  rt::HandlerId h_ghost_reply_ = 0;
  rt::HandlerId h_init_ghost_ = 0;
};

}  // namespace ccastream::graph
