#include "graph/builder.hpp"

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "runtime/check.hpp"
#include "runtime/rng.hpp"
#include "sim/energy.hpp"

namespace ccastream::graph {

StreamingGraph::StreamingGraph(GraphProtocol& protocol, GraphConfig cfg)
    : proto_(protocol),
      chip_(protocol.chip()),
      cfg_(cfg),
      rhizomes_(cfg.rhizomes == 0 ? 1 : cfg.rhizomes) {
  const std::uint32_t cells = chip_.geometry().cell_count();
  // Every root fragment has the same footprint, so a graph with more roots
  // than the scratchpads hold between them cannot fit. Refuse it before
  // reserving host tables sized by the root count (which can also wrap).
  const std::size_t root_bytes =
      VertexFragment(0, /*as_root=*/true, proto_.rpvo_config(), cfg_.root_init)
          .logical_bytes();
  const std::uint64_t cell_roots = chip_.config().cc_memory_bytes / root_bytes;
  constexpr std::uint64_t kMaxRoots = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t chip_roots =
      cells != 0 && cell_roots > kMaxRoots / cells ? kMaxRoots : cell_roots * cells;
  if (cfg_.num_vertices > chip_roots / rhizomes_) {
    throw std::runtime_error(
        "StreamingGraph: scratchpads of " + std::to_string(cells) +
        " cells hold at most " + std::to_string(chip_roots) + " root fragments, " +
        "not " + std::to_string(cfg_.num_vertices) + " vertices x " +
        std::to_string(rhizomes_) + " rhizomes; raise " +
        "ChipConfig::cc_memory_bytes or shrink the graph");
  }
  const std::uint64_t total_roots = cfg_.num_vertices * rhizomes_;
  roots_.reserve(total_roots);
  root_to_vid_.reserve(total_roots);

  rt::Xoshiro256 rng(cfg_.placement_seed);
  const std::uint64_t per_cell =
      cells == 0 ? 0 : (total_roots + cells - 1) / cells;

  for (std::uint64_t r = 0; r < total_roots; ++r) {
    const std::uint64_t vid = r / rhizomes_;
    std::uint32_t cc = 0;
    switch (cfg_.placement) {
      case PlacementPolicy::kRoundRobin:
        // Consecutive rhizomes of a vertex land on different cells.
        cc = static_cast<std::uint32_t>(r % cells);
        break;
      case PlacementPolicy::kBlocked:
        cc = static_cast<std::uint32_t>(r / per_cell);
        break;
      case PlacementPolicy::kRandom:
        cc = static_cast<std::uint32_t>(rng.below(cells));
        break;
    }
    auto frag = std::make_unique<VertexFragment>(vid, /*as_root=*/true,
                                                 proto_.rpvo_config(),
                                                 cfg_.root_init);
    const auto addr = chip_.host_allocate(cc, std::move(frag));
    if (!addr) {
      throw std::runtime_error(
          "StreamingGraph: scratchpad of cell " + std::to_string(cc) +
          " cannot hold its share of root fragments; raise "
          "ChipConfig::cc_memory_bytes or shrink the graph");
    }
    chip_.as<VertexFragment>(*addr)->root = *addr;
    roots_.push_back(*addr);
    root_to_vid_.emplace(*addr, vid);
  }

  // Link each vertex's rhizome roots into a ring so monotone applications
  // can synchronise state across them.
  if (rhizomes_ > 1) {
    for (std::uint64_t vid = 0; vid < cfg_.num_vertices; ++vid) {
      for (std::uint32_t i = 0; i < rhizomes_; ++i) {
        auto* frag = chip_.as<VertexFragment>(roots_[vid * rhizomes_ + i]);
        frag->rhizome_next = roots_[vid * rhizomes_ + (i + 1) % rhizomes_];
      }
    }
  }
}

void StreamingGraph::throw_no_such_vertex(std::uint64_t vid) const {
  throw std::out_of_range("StreamingGraph: vertex id " + std::to_string(vid) +
                          " out of range (graph has " +
                          std::to_string(cfg_.num_vertices) + " vertices)");
}

void StreamingGraph::set_root_app_word(std::uint64_t vid, std::size_t word,
                                       rt::Word value) {
  for (const auto addr : rhizome_roots(vid)) {
    chip_.as<VertexFragment>(addr)->app[word] = value;
  }
}

void StreamingGraph::enqueue_edge(const StreamEdge& e) {
  // Ingest hardening: a malformed stream edge must fail loudly host-side,
  // not index past roots_ (the chip has no way to bounds-check a bogus
  // root address once the action is in flight).
  if (e.src >= cfg_.num_vertices || e.dst >= cfg_.num_vertices) {
    throw std::out_of_range(
        "StreamingGraph::enqueue_edge: vertex id out of range (edge " +
        std::to_string(e.src) + " -> " + std::to_string(e.dst) + ", graph has " +
        std::to_string(cfg_.num_vertices) + " vertices)");
  }
  if (e.is_delete()) {
    if (rhizomes_ > 1) throw DeletionRhizomeError(rhizomes_);
    chip_.io_enqueue(proto_.make_delete(roots_[e.src], roots_[e.dst]));
    return;
  }
  // Round-robin over the source's rhizomes (which root ingests the edge)
  // and over the destination's rhizomes (which root the stored edge points
  // to) — the hub-load-spreading of the Rhizomes design.
  const rt::GlobalAddress src =
      roots_[e.src * rhizomes_ + (rhizomes_ > 1 ? src_rr_++ % rhizomes_ : 0)];
  const rt::GlobalAddress dst =
      roots_[e.dst * rhizomes_ + (rhizomes_ > 1 ? dst_rr_++ % rhizomes_ : 0)];
  chip_.io_enqueue(proto_.make_insert(src, dst, e.weight));
}

IncrementReport StreamingGraph::stream_increment(std::span<const StreamEdge> edges,
                                                 std::uint64_t max_cycles) {
  const sim::ChipStats before = chip_.stats();
  const double energy_before = chip_.energy_pj();

  std::uint64_t deletes = 0;
  for (const StreamEdge& e : edges) {
    if (e.is_delete()) ++deletes;
  }

  if (deletes > 0) {
    // Validate the whole increment before any op is enqueued so a
    // misconfiguration surfaces as one structured error, not a fatal (or a
    // half-streamed batch) mid-increment.
    if (rhizomes_ > 1) throw DeletionRhizomeError(rhizomes_);
    const AppHooks& h = proto_.hooks();
    if (h.on_edge_inserted && !h.host_repair.invalidate && !h.on_edge_deleted) {
      // An app is chaining computation off inserts but has no deletion
      // story at all: structure-only deletion would silently leave its
      // state stale. Fail loudly (see the header comment).
      rt::fatal_misuse(
          "stream_increment: deleting increment under an app without "
          "deletion repair (no host_repair/on_edge_deleted hook)",
          __FILE__, __LINE__);
    }
  }

  if (deletes == 0) {
    // Insert-only fast path: unchanged single-phase streaming.
    for (const StreamEdge& e : edges) enqueue_edge(e);
    chip_.run_until_quiescent(max_cycles);
  } else {
    // Op-mixed increment: the four-phase deletion protocol (see the
    // header). The app's on-cell hooks are suppressed for the structural
    // phases when it provides host repair, so application state stays
    // frozen at its pre-increment fixed point until phase I reads it.
    const AppHooks& hooks = proto_.hooks();
    const bool repair = static_cast<bool>(hooks.host_repair.invalidate);
    if (repair) proto_.set_hooks_suppressed(true);

    // Phase S-D: all deletes, to quiescence. Running deletes strictly
    // before inserts gives op-mixed increments a defined order — a delete
    // and re-insert of the same pair in one increment nets one record —
    // and matches base::DynamicBfs::apply_increment.
    for (const StreamEdge& e : edges) {
      if (e.is_delete()) enqueue_edge(e);
    }
    chip_.run_until_quiescent(max_cycles);

    // Phase S-I: all inserts, to quiescence.
    for (const StreamEdge& e : edges) {
      if (!e.is_delete()) enqueue_edge(e);
    }
    chip_.run_until_quiescent(max_cycles);

    if (repair) {
      proto_.set_hooks_suppressed(false);
      // Phase I: host seeds invalidation from the pre-increment app state,
      // the chip runs the un-settle wave to quiescence.
      const bool invalidated = hooks.host_repair.invalidate(*this, edges);
      chip_.run_until_quiescent(max_cycles);
      // Phase R: host seeds re-settlement; monotone diffusion repairs the
      // invalidated region (and performs the inserts' deferred diffusion).
      if (hooks.host_repair.resettle) {
        hooks.host_repair.resettle(*this, edges, invalidated);
        chip_.run_until_quiescent(max_cycles);
      }
    }
  }

  IncrementReport r;
  r.edges = edges.size();
  r.deletes = deletes;
  r.stats_delta = chip_.stats().delta_since(before);
  r.cycles = r.stats_delta.cycles;
  r.energy_uj = sim::pj_to_uj(chip_.energy_pj() - energy_before);
  return r;
}

std::uint64_t StreamingGraph::run(std::uint64_t max_cycles) {
  return chip_.run_until_quiescent(max_cycles);
}

std::uint64_t StreamingGraph::stored_degree(std::uint64_t vid) const {
  std::uint64_t n = 0;
  for (const auto addr : fragments_of(vid)) {
    n += const_cast<sim::Chip&>(chip_).as<VertexFragment>(addr)->edges.size();
  }
  return n;
}

std::vector<std::pair<std::uint64_t, std::uint32_t>> StreamingGraph::neighbors(
    std::uint64_t vid) const {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  for (const auto addr : fragments_of(vid)) {
    const auto* frag = const_cast<sim::Chip&>(chip_).as<VertexFragment>(addr);
    for (const EdgeRecord& e : frag->edges) {
      const auto it = root_to_vid_.find(e.dst);
      if (it != root_to_vid_.end()) out.emplace_back(it->second, e.weight);
    }
  }
  return out;
}

rt::Word StreamingGraph::app_word(std::uint64_t vid, std::size_t word) const {
  return const_cast<sim::Chip&>(chip_).as<VertexFragment>(root_of(vid))->app[word];
}

rt::Word StreamingGraph::app_word_chain_sum(std::uint64_t vid,
                                            std::size_t word) const {
  rt::Word sum = 0;
  for (const auto addr : fragments_of(vid)) {
    sum += const_cast<sim::Chip&>(chip_).as<VertexFragment>(addr)->app[word];
  }
  return sum;
}

std::optional<std::uint64_t> StreamingGraph::vid_of_root(rt::GlobalAddress a) const {
  const auto it = root_to_vid_.find(a);
  if (it == root_to_vid_.end()) return std::nullopt;
  return it->second;
}

}  // namespace ccastream::graph
