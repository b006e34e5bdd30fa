// The Recursively Parallel Vertex Object (RPVO) fragment — paper Figure 1.
//
// A logical vertex is stored as a chain (or small tree, with fan-out > 1) of
// fragments spread across compute cells. Each fragment holds a bounded
// in-place edge list and one future-of-pointer per ghost slot; the root
// fragment is the vertex's public address. Edge inserts that overflow a
// fragment flow through the ghost future to the next fragment, allocating
// it on demand via the asynchronous continuation protocol.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "runtime/action.hpp"
#include "runtime/arena.hpp"
#include "runtime/context.hpp"
#include "runtime/future.hpp"
#include "runtime/types.hpp"

namespace ccastream::graph {

/// Number of application state words in each fragment (BFS level, SSSP
/// distance, component label, triangle counter, ... — one app at a time).
inline constexpr std::size_t kAppWords = 4;
using AppState = std::array<rt::Word, kAppWords>;

/// An edge stored in a fragment's edge list. The destination is the *root*
/// address of the destination vertex (paper Listing 3: edges carry the
/// vertex pointer, not the id, so diffusion needs no translation step).
struct EdgeRecord {
  rt::GlobalAddress dst;
  std::uint32_t weight = 1;
};

/// Shape parameters of the RPVO structure.
struct RpvoConfig {
  std::uint32_t edge_capacity = 16;  ///< Edge slots per fragment.
  std::uint32_t ghost_fanout = 1;    ///< Ghost futures per fragment (paper: >= 1).
};

/// One fragment of a vertex (root or ghost).
class VertexFragment final : public rt::ArenaObject {
 public:
  VertexFragment(std::uint64_t vertex_id, bool as_root, const RpvoConfig& cfg,
                 const AppState& app_init)
      : vid(vertex_id),
        is_root(as_root),
        edge_capacity(cfg.edge_capacity),
        ghosts(cfg.ghost_fanout),
        app(app_init) {
    edges.reserve(edge_capacity);
  }

  /// vertex-has-room of paper Listing 6.
  [[nodiscard]] bool has_room() const noexcept {
    return edges.size() < edge_capacity;
  }

  /// Ghost slot to overflow into next (round-robin across the fan-out).
  [[nodiscard]] std::uint32_t next_ghost_slot() noexcept {
    const std::uint32_t s = next_ghost_;
    next_ghost_ = (next_ghost_ + 1) % static_cast<std::uint32_t>(ghosts.size());
    return s;
  }

  /// Scratchpad footprint: fixed header + the reserved edge array + ghost
  /// future bookkeeping. Charged in full at allocation (the edge list is a
  /// fixed-capacity in-place array on the real hardware).
  [[nodiscard]] std::size_t logical_bytes() const noexcept override;

  std::uint64_t vid;                 ///< Vertex id (ghosts learn it via init).
  rt::GlobalAddress root;            ///< Root fragment address (self for roots).
  /// Next root in this vertex's rhizome ring (see StreamingGraph: vertices
  /// may have several root fragments to spread hub load, after the authors'
  /// companion "Rhizomes" design). Null when the vertex has a single root
  /// and on ghost fragments. Monotone apps forward improved state around
  /// the ring so every rhizome converges to the vertex's value.
  rt::GlobalAddress rhizome_next;
  bool is_root;
  std::uint32_t edge_capacity;
  std::vector<EdgeRecord> edges;     ///< Local slice of the edge list.
  std::vector<rt::FutureAddr> ghosts;
  std::uint64_t inserts_seen = 0;    ///< Inserts routed through this fragment;
                                     ///< at the root this is the vertex's
                                     ///< cumulative insert count.
  std::uint64_t deletes_seen = 0;    ///< Delete ops routed through this
                                     ///< fragment, mirroring inserts_seen.
                                     ///< (inserts_seen - deletes_seen at the
                                     ///< root is NOT the live degree: one
                                     ///< delete op can remove several records
                                     ///< and an unmatched delete removes none.
                                     ///< Live degree is stored_degree().)
  AppState app;                      ///< Application state (level, dist, ...).

 private:
  std::uint32_t next_ghost_ = 0;
};

/// How many copies of an action forward_down_chain sent on.
struct ChainForward {
  std::uint32_t propagated = 0;  ///< Copies sent down ready ghost links.
  std::uint32_t parked = 0;      ///< Copies parked on pending futures.
};

/// Hands `a` on to the rest of `frag`'s logical vertex: a copy retargeted
/// at each ready ghost link is propagated, and a copy is parked on each
/// pending future (its target is patched at fulfilment, so a racing
/// allocation cannot lose it). Empty slots and failed (null) links get
/// nothing.
ChainForward forward_down_chain(rt::Context& ctx, VertexFragment& frag,
                                rt::Action a);

}  // namespace ccastream::graph
