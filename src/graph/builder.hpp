// Host-side façade over the chip + graph protocol: places root fragments,
// translates streamed (src, dst) vertex-id edges into insert-edge actions on
// the IO channels, runs increments to quiescence, and walks RPVO chains to
// extract results for verification (paper Listing 1's main()).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/fragment.hpp"
#include "graph/protocol.hpp"
#include "graph/stream_edge.hpp"
#include "sim/chip.hpp"

namespace ccastream::graph {

/// How vertex roots are spread over the compute cells.
enum class PlacementPolicy : std::uint8_t {
  kRoundRobin,  ///< vid % cells — fine-grain interleave (default).
  kBlocked,     ///< contiguous vid ranges per cell.
  kRandom,      ///< uniform random cell per vertex.
};

struct GraphConfig {
  std::uint64_t num_vertices = 0;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  std::uint64_t placement_seed = 0x5EED;
  /// Initial app state for root fragments; roots whose id appears in
  /// StreamingGraph::set_root_app_word get per-vertex overrides (e.g. the
  /// BFS source's level 0).
  AppState root_init{};
  /// Root fragments per vertex (the "Rhizomes" of the authors' companion
  /// design, arXiv:2402.06086): with k > 1, every vertex gets k roots on
  /// different cells linked in a ring; streamed edges round-robin across
  /// the source's roots and destination addresses round-robin across the
  /// destination's roots, spreading hub hotspots. Monotone apps (BFS,
  /// SSSP, components, reachability) forward improved state around the
  /// ring; PageRank/triangles/Jaccard require rhizomes == 1.
  std::uint32_t rhizomes = 1;
};

/// A delete op reached a graph built with rhizomes > 1. Stored edge
/// records point at round-robin-chosen destination roots, so a delete
/// could not find all its matches on-cell (see protocol.hpp); the
/// configurations are mutually exclusive, and the conflict is reported
/// up front as this structured error (a std::runtime_error, so generic
/// handlers keep working) rather than a fatal mid-increment.
class DeletionRhizomeError : public std::runtime_error {
 public:
  explicit DeletionRhizomeError(std::uint32_t rhizomes)
      : std::runtime_error(
            "deletion requires rhizomes == 1, but this graph was built with "
            "rhizomes == " +
            std::to_string(rhizomes) +
            "; drop the sliding window (--window 0 / unset CCASTREAM_WINDOW) "
            "or build the graph with --rhizomes 1") {}
};

/// Summary of one streamed increment (one paper data point of Fig 8/9).
struct IncrementReport {
  std::uint64_t edges = 0;    ///< Total ops in the increment (inserts + deletes).
  std::uint64_t deletes = 0;  ///< Delete ops among them.
  std::uint64_t cycles = 0;
  double energy_uj = 0.0;
  sim::ChipStats stats_delta;  ///< Full counter delta for deep analysis.
};

/// Host-readable digest of a quiescent graph: the logical graph (per-vertex
/// out-arcs as vertex ids) plus each vertex's primary-root application
/// words, built by StreamingGraph::digest() from the live fragments or by
/// parse_snapshot_digest from a save_snapshot text, without a chip. The
/// streaming service latches the same rows between increments
/// (StreamingGraph::digest_row and app_words; svc/stream_service.hpp).
struct SnapshotDigest {
  struct Arc {
    std::uint64_t dst = 0;
    std::uint32_t weight = 0;
    friend bool operator==(const Arc&, const Arc&) = default;
  };
  std::uint64_t num_vertices = 0;
  std::uint32_t rhizomes = 1;
  std::uint64_t num_edges = 0;  ///< Stored records summed over all chains.
  /// vid-major adjacency, merged across every fragment of the chain in
  /// chain order — the order StreamingGraph::neighbors() reports.
  std::vector<std::vector<Arc>> adjacency;
  /// Primary-root app words per vertex (where monotone apps keep results).
  std::vector<AppState> app_words;
  friend bool operator==(const SnapshotDigest&, const SnapshotDigest&) = default;
};

/// Parses a save_snapshot stream (v2 or legacy v1) into the saved graph's
/// SnapshotDigest. Shares its text readers and chain checks with
/// load_snapshot: edges to non-roots and broken chain links (dangling,
/// crossing vertices, or reaching a fragment twice) are rejected. Throws
/// std::runtime_error on malformed input.
[[nodiscard]] SnapshotDigest parse_snapshot_digest(std::istream& in);

/// Every member taking a vertex id throws std::out_of_range when the id is
/// not a vertex of the graph (vid >= num_vertices()).
class StreamingGraph {
 public:
  /// Places all root fragments host-side (graph construction in the paper
  /// starts "by first allocating the root RPVO objects on the chip").
  /// Throws std::runtime_error if a scratchpad cannot hold its roots.
  StreamingGraph(GraphProtocol& protocol, GraphConfig cfg);

  // --- Setup ----------------------------------------------------------------

  /// Primary root fragment address of a vertex.
  [[nodiscard]] rt::GlobalAddress root_of(std::uint64_t vid) const {
    return rhizome_roots(vid).front();
  }

  /// All rhizome root addresses of a vertex (size == config's `rhizomes`).
  [[nodiscard]] std::span<const rt::GlobalAddress> rhizome_roots(
      std::uint64_t vid) const {
    if (vid >= cfg_.num_vertices) throw_no_such_vertex(vid);
    return {roots_.data() + vid * rhizomes_, rhizomes_};
  }

  /// Overrides one app word on *every* rhizome root of a vertex before
  /// streaming (host-side seeding: e.g. BFS source level = 0, component
  /// labels = vid).
  void set_root_app_word(std::uint64_t vid, std::size_t word, rt::Word value);

  // --- Streaming --------------------------------------------------------------

  /// Queues one edge op on the IO channels without running (inserts and
  /// structural deletes alike; no repair orchestration). Throws
  /// std::out_of_range when an endpoint id is outside the graph and
  /// DeletionRhizomeError for a delete with rhizomes > 1.
  void enqueue_edge(const StreamEdge& e);

  /// Queues a batch and runs the chip to quiescence — one streaming
  /// increment. Returns the per-increment report.
  ///
  /// Insert-only batches stream in a single phase, exactly as before.
  /// Batches containing delete ops run the four-phase deletion protocol
  /// (every phase is an ordinary deterministic chip run, so the whole
  /// increment stays cycle-identical across engines/threads/partitions):
  ///   S-D  all deletes stream and quiesce (on-cell app hooks suppressed
  ///        while the installed app provides host repair);
  ///   S-I  all inserts stream and quiesce (hooks still suppressed) —
  ///        app state is untouched so far, so the pre-increment fixed
  ///        point is what phase I reads;
  ///   I    AppHooks::host_repair.invalidate seeds un-settle waves for
  ///        severed dependencies; the chip runs them to quiescence;
  ///   R    AppHooks::host_repair.resettle seeds re-settlement and the
  ///        monotone diffusion converges on the repaired fixed point.
  /// Deleting increments are validated up front: rhizomes > 1 throws
  /// DeletionRhizomeError before any op is enqueued, and an app that
  /// chains on inserts (on_edge_inserted set) but has no host_repair is a
  /// fatal misuse — silently deleting structure under it would leave its
  /// state stale with no repair story. Hook-free structural streaming (no
  /// app installed) still gets plain structure-only deletion.
  /// The report's cycle/energy deltas span all phases.
  ///
  /// An increment changes the stored adjacency of its ops' sources only:
  /// every op targets a root of its `src`, and only graph/protocol.cpp's
  /// insert and delete handlers write edge slots, each on the chain of the
  /// fragment it reached (ghosts included). So every other vertex's
  /// digest_row arcs read as before; app words may change anywhere. The
  /// streaming service's copy-on-write views rest on this.
  IncrementReport stream_increment(std::span<const StreamEdge> edges,
                                   std::uint64_t max_cycles = sim::Chip::kNoLimit);

  /// Runs whatever work is pending to quiescence (used after host-injected
  /// seed actions). Returns cycles executed.
  std::uint64_t run(std::uint64_t max_cycles = sim::Chip::kNoLimit);

  // --- Inspection (host side, not simulated) -----------------------------------

  /// All fragment addresses of a vertex, root first, following every ghost
  /// link that is ready.
  [[nodiscard]] std::vector<rt::GlobalAddress> fragments_of(std::uint64_t vid) const;

  /// Number of edge records physically stored across the vertex's chain.
  [[nodiscard]] std::uint64_t stored_degree(std::uint64_t vid) const;

  /// Out-neighbours (as vertex ids) across the whole chain, with weights.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint32_t>> neighbors(
      std::uint64_t vid) const;

  /// Root fragment's app word (where monotone apps keep their result).
  [[nodiscard]] rt::Word app_word(std::uint64_t vid, std::size_t word) const;

  /// Root fragment's app words: digest().app_words[vid].
  [[nodiscard]] const AppState& app_words(std::uint64_t vid) const;

  /// Vertex vid's row of digest(), read without touching any other vertex:
  /// appends digest().adjacency[vid] (its out-arcs in chain order) to
  /// `arcs` and returns digest().app_words[vid].
  AppState digest_row(std::uint64_t vid, std::vector<SnapshotDigest::Arc>& arcs) const;

  /// Sum of an app word over *all* fragments of the vertex (used by apps
  /// that accumulate per-fragment, e.g. triangle counting).
  [[nodiscard]] rt::Word app_word_chain_sum(std::uint64_t vid, std::size_t word) const;

  /// Maps a root fragment address back to its vertex id; std::nullopt for
  /// any other address (a ghost, null, or off the chip).
  [[nodiscard]] std::optional<std::uint64_t> vid_of_root(rt::GlobalAddress a) const {
    return index_.find(a);
  }

  // --- Checkpoint / restore ---------------------------------------------------

  /// Serialises the whole graph (every fragment on the chip, including
  /// ghost-chain structure and application state) to a text snapshot. The
  /// chip must be quiescent — pending futures cannot be checkpointed.
  /// Throws std::logic_error if it is not.
  void save_snapshot(std::ostream& out) const;

  /// The digest of the live fragments: parse_snapshot_digest of a
  /// save_snapshot text, without the text. Throws std::logic_error unless
  /// the chip is quiescent, like save_snapshot.
  [[nodiscard]] SnapshotDigest digest() const;

  /// Reconstructs a graph from a snapshot onto a *fresh* chip (same
  /// geometry and RPVO configuration as at save time; validated). The
  /// restored graph continues streaming exactly where the saved one
  /// stopped. Throws std::runtime_error on format or config mismatch, and
  /// before placing any fragment on the chain faults parse_snapshot_digest
  /// rejects or on a roots table whose roots do not hold consecutive slots
  /// of their cell.
  [[nodiscard]] static std::unique_ptr<StreamingGraph> load_snapshot(
      GraphProtocol& protocol, std::istream& in);

  [[nodiscard]] std::uint64_t num_vertices() const noexcept {
    return cfg_.num_vertices;
  }
  /// Root fragments per vertex (>= 1).
  [[nodiscard]] std::uint32_t rhizome_count() const noexcept { return rhizomes_; }
  [[nodiscard]] GraphProtocol& protocol() noexcept { return proto_; }
  [[nodiscard]] sim::Chip& chip() noexcept { return proto_.chip(); }
  [[nodiscard]] const sim::Chip& chip() const noexcept { return chip_; }

 private:
  struct RestoreTag {};

  /// The inverse of roots_, with no per-root allocation. A cell's roots
  /// hold consecutive arena slots (they are placed in one pass before
  /// anything else can land between them), so (cc, slot) -> vid is one
  /// {first_slot, count, base} entry per cell plus an offset into one vid
  /// array holding each cell's vids by slot.
  class RootIndex {
   public:
    /// Rebuilds the index of `roots` (vid-major, `rhizomes` per vertex)
    /// over a chip of `cells` cells, in O(roots + cells). Returns false if
    /// a root is off the chip or a cell's roots do not hold consecutive
    /// slots; the index is then unusable.
    [[nodiscard]] bool build(std::span<const rt::GlobalAddress> roots,
                             std::uint32_t rhizomes, std::uint32_t cells);
    [[nodiscard]] std::optional<std::uint64_t> find(rt::GlobalAddress a) const noexcept {
      if (a.cc >= cells_.size()) return std::nullopt;  // null has cc kNullCc
      const Cell& c = cells_[a.cc];
      if (a.slot < c.first_slot || a.slot - c.first_slot >= c.count) return std::nullopt;
      return vids_[c.base + (a.slot - c.first_slot)];
    }

   private:
    struct Cell {
      std::uint32_t first_slot = 0;
      std::uint32_t count = 0;
      std::uint64_t base = 0;  ///< Offset of the cell's first vid in vids_.
    };
    std::vector<Cell> cells_;
    std::vector<std::uint64_t> vids_;
  };

  [[noreturn]] void throw_no_such_vertex(std::uint64_t vid) const;
  /// Restore constructor: adopts already-placed roots instead of allocating.
  StreamingGraph(GraphProtocol& protocol, GraphConfig cfg, RestoreTag);

  GraphProtocol& proto_;
  sim::Chip& chip_;
  GraphConfig cfg_;
  std::uint32_t rhizomes_ = 1;
  /// vid-major: roots_[vid * rhizomes_ + i] is vertex vid's i-th root.
  std::vector<rt::GlobalAddress> roots_;
  RootIndex index_;  ///< roots_ inverted.
  std::uint64_t src_rr_ = 0;  ///< round-robin cursors for edge streaming
  std::uint64_t dst_rr_ = 0;
};

}  // namespace ccastream::graph
