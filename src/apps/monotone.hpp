// One monotone diffusion app — the paper's demonstration application
// (Listings 4 & 5) and its generalisations, as a single policy-driven class.
// StreamingBfs, StreamingSssp and StreamingComponents are named policies of
// it (apps/bfs.hpp, sssp.hpp, components.hpp).
//
// Each app keeps a per-vertex value in one app word that only ever
// *improves* (min wins) under insert-driven diffusion:
//
//   <name>(v, val): if val is better than v's value, adopt it and diffuse:
//     send <name>(dst, EdgeStep(val, e)) along every local edge record,
//     forward val unchanged down every ghost link (a ghost is the same
//     logical vertex) and around the rhizome ring (the improvement check
//     stops the cycle once every root holds val).
//
// Streamed edge insertions chain into <name> through the on_edge_inserted
// hook (Listing 4: "inform the dst vertex about this new edge only if this
// src vertex has a settled value"), so results of previous computation are
// *updated*, never recomputed from scratch. Monotone min-updates make the
// asynchronous, unordered delivery safe (chaotic relaxation).
//
// Deletions break monotonicity (removing an edge can only make values
// *worse*), so every app also runs the same two-wave repair, host-seeded by
// StreamingGraph::stream_increment between quiescent chip runs (phases I
// and R of the four-phase deletion increment):
//
//   <name>-unsettle(v, expected): the invalidation wave. If v still holds
//     exactly `expected` (read from the pre-increment fixed point, frozen
//     through the structural phases), its value may have been derived
//     through a severed edge: reset it and cascade unsettle along local
//     edges with the value the neighbour would have derived from this one
//     (EdgeStep). Ghost links forward `expected` unchanged. The wave follows
//     exact derivation edges only, so it is order-independent and composes
//     across any number of deletes in one increment; it over-approximates
//     (a cleared vertex may have had another intact derivation) but provably
//     covers every vertex whose every derivation path used a deleted edge.
//
//   <name>-resettle(v, val): the re-diffusion seed. Adopt `val` if better,
//     then push the current value along ALL local edges through <name> even
//     though nothing improved here (<name> itself only diffuses on
//     improvement). Host repair seeds this at every surviving vertex;
//     monotone diffusion then converges on the exact fixed point of the
//     post-increment graph — surviving values are still exact (deletions
//     cannot improve a value), and each invalidated vertex regains its true
//     value from a surviving derivation by induction along that path. Ghost
//     links forward the resettle itself, carrying the settled value so
//     cleared/fresh ghosts re-sync; the rhizome ring is intentionally not
//     traversed (deletions require rhizomes == 1, enforced by
//     StreamingGraph), since it would cycle without an improvement check.
//
// What differs per app is captured in Policy:
//   * EdgeStep — how a value derives across an edge (level + 1, distance +
//     weight, same label).
//   * SeedWhen — which frozen (src, dst) value pairs of a deleted edge mark
//     dst's value as possibly derived through it. SSSP uses the
//     conservative `dist(dst) > dist(src)` form: the deleted records (and
//     their weights) are already gone when phase I runs, so the host
//     cannot test dist(dst) == dist(src) + w exactly; the over-
//     approximation is safe because resettle restores exact values. This
//     relies on edge weights >= 1 — with dist(src) < dist(dst) the source
//     (distance 0) can never be seeded.
//   * ResetTo — the cleared value: the app's unsettled sentinel, or the
//     vertex's own id (components, where every root is its own label
//     seed). ResetTo::kSelfId additionally *protects* a fragment whose
//     expected value equals its vid: a self-derived label cannot have
//     depended on any edge, so the wave must not clear it (and deleting an
//     edge into such a vertex needs no invalidation at all — SeedWhen
//     skips it).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/builder.hpp"
#include "graph/protocol.hpp"
#include "graph/stream_edge.hpp"

namespace ccastream::apps {

class MonotoneApp {
 public:
  /// How a value derives across an edge record.
  enum class EdgeStep : std::uint8_t {
    kPlusOne,     ///< BFS: level(dst) = level(src) + 1.
    kPlusWeight,  ///< SSSP: dist(dst) = dist(src) + weight.
    kSame,        ///< Components: label(dst) = label(src).
  };

  /// Phase I seed condition over the frozen (value(src), value(dst)) pair
  /// of a deleted edge.
  enum class SeedWhen : std::uint8_t {
    kExactPlusOne,  ///< value(dst) == value(src) + 1 (BFS tree edge).
    kDownstream,    ///< value(dst) > value(src), both settled (SSSP: the
                    ///< deleted weights are unknown host-side).
    kSameLabel,     ///< value(dst) == value(src), and dst's label is not
                    ///< its own vid (components).
  };

  /// What an invalidated fragment's value resets to.
  enum class ResetTo : std::uint8_t {
    kUnsettled,  ///< The app's unreached/unsettled sentinel.
    kSelfId,     ///< The fragment's own vertex id (components).
  };

  struct Policy {
    std::string name;            ///< Handler-name stem, e.g. "bfs".
    std::size_t word = 0;        ///< App word holding the value.
    rt::Word unsettled = ~0ull;  ///< The app's unsettled sentinel.
    EdgeStep step = EdgeStep::kPlusOne;
    SeedWhen seed = SeedWhen::kExactPlusOne;
    ResetTo reset = ResetTo::kUnsettled;
  };

  /// Registers "app.<name>", "app.<name>-unsettle" and
  /// "app.<name>-resettle", in that order, on the protocol's chip.
  MonotoneApp(graph::GraphProtocol& protocol, Policy policy);
  /// Virtual: callers may own a named policy through a base pointer.
  virtual ~MonotoneApp() = default;

  // The registered handlers capture `this`.
  MonotoneApp(const MonotoneApp&) = delete;
  MonotoneApp& operator=(const MonotoneApp&) = delete;
  MonotoneApp(MonotoneApp&&) = delete;
  MonotoneApp& operator=(MonotoneApp&&) = delete;

  /// Installs this app's hooks on the protocol (insert-edge chains into
  /// <name> from then on). Call before streaming.
  void install();

  /// Hooks without installing (for callers composing their own AppHooks):
  /// the insert and ghost-link diffusion hooks, the phase I/R repair seeds,
  /// and a ghost_init with the value word unsettled.
  [[nodiscard]] graph::AppHooks make_hooks() const;

  /// Sets `vid`'s value on every rhizome root before streaming (e.g. the
  /// BFS source's level 0).
  void seed(graph::StreamingGraph& g, std::uint64_t vid, rt::Word value) const;

  /// Injects <name>(root(vid), value) — seeds or re-seeds diffusion on a
  /// graph that already has edges. Run the chip afterwards.
  void kick(graph::StreamingGraph& g, std::uint64_t vid, rt::Word value) const;

  /// The computed value of a vertex (the unsettled sentinel if none).
  [[nodiscard]] rt::Word value_of(const graph::StreamingGraph& g,
                                  std::uint64_t vid) const;

  [[nodiscard]] rt::HandlerId handler() const noexcept { return h_value_; }
  [[nodiscard]] rt::HandlerId unsettle_handler() const noexcept {
    return h_unsettle_;
  }
  [[nodiscard]] rt::HandlerId resettle_handler() const noexcept {
    return h_resettle_;
  }

 private:
  void handle_value(rt::Context& ctx, const rt::Action& a) const;
  void handle_unsettle(rt::Context& ctx, const rt::Action& a) const;
  void handle_resettle(rt::Context& ctx, const rt::Action& a) const;

  /// Sends `edge_handler(dst, step(value, e))` along every local edge and
  /// `chain_handler(ghost, value)` down every ghost link — the one
  /// diffusion the three handlers share.
  void diffuse(rt::Context& ctx, graph::VertexFragment& frag,
               rt::HandlerId edge_handler, rt::HandlerId chain_handler,
               rt::Word value) const;

  /// Host repair phase I: seed un-settle waves for the increment's deletes.
  bool seed_invalidation(graph::StreamingGraph& g,
                         std::span<const StreamEdge> ops) const;
  /// Host repair phase R: seed re-settlement kicks.
  void seed_resettle(graph::StreamingGraph& g, std::span<const StreamEdge> ops,
                     bool invalidated) const;

  /// The value an out-neighbour would derive from `value` across `e`.
  [[nodiscard]] rt::Word step(rt::Word value,
                              const graph::EdgeRecord& e) const noexcept {
    switch (policy_.step) {
      case EdgeStep::kPlusOne: return value + 1;
      case EdgeStep::kPlusWeight: return value + e.weight;
      case EdgeStep::kSame: return value;
    }
    return value;
  }

  graph::GraphProtocol& proto_;
  Policy policy_;
  rt::HandlerId h_value_ = 0;
  rt::HandlerId h_unsettle_ = 0;
  rt::HandlerId h_resettle_ = 0;
};

}  // namespace ccastream::apps
