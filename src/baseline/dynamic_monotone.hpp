// Incremental (streaming) monotone fixed points on the CPU: the oracles the
// chip's streaming BFS, SSSP and components are pinned against, and the
// "recompute vs incremental" baseline pair used by the benchmark harness.
//
// One algorithm serves all three, as Ramalingam & Reps show for every
// monotone "superior function" problem ("An Incremental Algorithm for a
// Generalization of the Shortest-Path Problem", J. Algorithms 21(2), 1996).
// Each vertex holds a value that a step across a stored arc can only
// lower. A rule supplies what differs:
//   - the arc it stores: a bare destination id, or {dst, weight};
//   - the step across an arc: +1, +weight, or identity;
//   - the reset value, held by a vertex no arc supports: kUnreached (0 at
//     the source), or the vertex's own id;
//   - its from-scratch ground truth over a RefGraph (algorithms.hpp).
//
// Insertion: when arc (u, v) arrives and step(value(u)) < value(v), v
// improves and the improvement floods forward. This is chaotic relaxation:
// the order does not change the fixed point.
//
// Deletion: removing (u, v) erases every stored (u, v) arc, the chip's
// delete-all-matches semantics. If a removed arc could have carried v's
// value (step(value(u)) == value(v)), the closure forward of v over such
// exact-derivation arcs is invalidated, judged against each vertex's
// frozen old value, and every cleared vertex takes its reset value. Then
// every vertex not at kUnreached re-floods, in index order. Surviving
// values are exact: a deletion cannot lower a fixed point, and a vertex
// whose every derivation crossed the deleted arc lies in the closure. The
// closure over-approximates; a vertex cleared needlessly gets its value
// back from the re-flood. A vertex at its reset value depends on no arc,
// so the closure never clears it: that protects the BFS/SSSP source and
// the vertex whose id is a component's label.
//
// Hardening: an edge naming an id outside [0, num_vertices) is rejected
// (counted in edges_rejected()), never indexed. A malformed stream edge
// must not be UB in the oracle the chip is pinned against.
//
// The oracle shares no header or policy type with apps::MonotoneApp, so
// one bug cannot pass both.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "baseline/algorithms.hpp"
#include "graph/stream_edge.hpp"

namespace ccastream::base {

/// BFS levels from `source`: each arc costs one level.
struct BfsRule {
  using Arc = std::uint64_t;
  std::uint64_t source;

  [[nodiscard]] static std::uint64_t step(std::uint64_t v, Arc) noexcept {
    return v + 1;
  }
  [[nodiscard]] std::uint64_t reset(std::uint64_t v) const noexcept {
    return v == source ? 0 : kUnreached;
  }
  [[nodiscard]] std::vector<std::uint64_t> ground_truth(const RefGraph& g) const {
    return bfs_levels(g, source);
  }
};

/// Shortest distances from `source` over non-negative weights. The only
/// rule whose arc carries a weight; the others store the bare destination.
struct SsspRule {
  using Arc = RefGraph::Arc;
  std::uint64_t source;

  [[nodiscard]] static std::uint64_t step(std::uint64_t v, const Arc& a) noexcept {
    return v + a.weight;
  }
  [[nodiscard]] std::uint64_t reset(std::uint64_t v) const noexcept {
    return v == source ? 0 : kUnreached;
  }
  [[nodiscard]] std::vector<std::uint64_t> ground_truth(const RefGraph& g) const {
    return sssp_distances(g, source);
  }
};

/// Directed min-reaching labels (see min_reaching_labels): a label crosses
/// an arc unchanged, and every vertex reaches itself.
struct LabelRule {
  using Arc = std::uint64_t;

  [[nodiscard]] static std::uint64_t step(std::uint64_t v, Arc) noexcept { return v; }
  [[nodiscard]] static std::uint64_t reset(std::uint64_t v) noexcept { return v; }
  [[nodiscard]] static std::vector<std::uint64_t> ground_truth(const RefGraph& g) {
    return min_reaching_labels(g);
  }
};

template <typename Rule>
class DynamicMonotone {
 public:
  using Arc = typename Rule::Arc;

  /// Every vertex starts at its reset value.
  DynamicMonotone(std::uint64_t num_vertices, Rule rule);

  /// Inserts one arc and repairs values incrementally. A rule whose arc
  /// carries no weight ignores `weight`. Out-of-range ids are rejected.
  void insert_edge(std::uint64_t src, std::uint64_t dst, std::uint32_t weight = 1);

  /// Deletes every stored (src, dst) arc (observation-multiset semantics,
  /// matching the chip's delete-all-matches protocol) and repairs values
  /// via invalidate + re-flood. Unknown pairs and out-of-range ids are
  /// no-ops (the latter counted as rejected).
  void delete_edge(std::uint64_t src, std::uint64_t dst);

  /// Applies one stream op according to its kind.
  void apply(const StreamEdge& e);

  /// Applies a batch (one streaming increment): all deletes first, then
  /// all inserts — the sub-phase order of the chip's
  /// StreamingGraph::stream_increment, so a delete + re-insert of the same
  /// pair inside one increment nets one stored arc on both sides.
  void apply_increment(std::span<const StreamEdge> edges);

  [[nodiscard]] const std::vector<std::uint64_t>& values() const noexcept {
    return value_;
  }
  [[nodiscard]] std::uint64_t value_of(std::uint64_t v) const { return value_[v]; }

  /// Work metric: vertices whose value actually changed during incremental
  /// repair (insert relaxations + post-deletion re-settlement). Queue pops
  /// that relax nothing are not counted.
  [[nodiscard]] std::uint64_t vertices_resettled() const noexcept {
    return resettled_;
  }
  /// Vertices reset by deletion invalidation waves so far.
  [[nodiscard]] std::uint64_t vertices_invalidated() const noexcept {
    return invalidated_;
  }
  /// Stored arcs removed by `delete_edge` so far.
  [[nodiscard]] std::uint64_t edges_deleted() const noexcept { return deleted_; }
  /// Ops dropped because an endpoint id was out of range.
  [[nodiscard]] std::uint64_t edges_rejected() const noexcept { return rejected_; }

  /// The same final values computed from scratch by the rule's ground truth.
  [[nodiscard]] std::vector<std::uint64_t> recompute() const;

 private:
  [[nodiscard]] bool in_range(std::uint64_t src, std::uint64_t dst) noexcept;
  [[nodiscard]] bool relax(std::uint64_t from, const Arc& a) noexcept;
  [[nodiscard]] bool carries(std::uint64_t from, const Arc& a) const noexcept;
  void flood(std::deque<std::uint64_t> q);
  void invalidate_from(std::uint64_t v);

  Rule rule_;
  std::vector<std::vector<Arc>> adj_;
  std::vector<std::uint64_t> value_;
  std::uint64_t resettled_ = 0;
  std::uint64_t invalidated_ = 0;
  std::uint64_t deleted_ = 0;
  std::uint64_t rejected_ = 0;
};

extern template class DynamicMonotone<BfsRule>;
extern template class DynamicMonotone<SsspRule>;
extern template class DynamicMonotone<LabelRule>;

// The three oracles under their own names; each only renames the accessors.

class DynamicBfs : public DynamicMonotone<BfsRule> {
 public:
  DynamicBfs(std::uint64_t num_vertices, std::uint64_t source)
      : DynamicMonotone(num_vertices, BfsRule{source}) {}
  [[nodiscard]] const std::vector<std::uint64_t>& levels() const noexcept {
    return values();
  }
  [[nodiscard]] std::uint64_t level_of(std::uint64_t v) const { return value_of(v); }
};

class DynamicSssp : public DynamicMonotone<SsspRule> {
 public:
  DynamicSssp(std::uint64_t num_vertices, std::uint64_t source)
      : DynamicMonotone(num_vertices, SsspRule{source}) {}
  [[nodiscard]] const std::vector<std::uint64_t>& distances() const noexcept {
    return values();
  }
  [[nodiscard]] std::uint64_t distance_of(std::uint64_t v) const { return value_of(v); }
};

class DynamicComponents : public DynamicMonotone<LabelRule> {
 public:
  explicit DynamicComponents(std::uint64_t num_vertices)
      : DynamicMonotone(num_vertices, LabelRule{}) {}
  [[nodiscard]] const std::vector<std::uint64_t>& labels() const noexcept {
    return values();
  }
  [[nodiscard]] std::uint64_t label_of(std::uint64_t v) const { return value_of(v); }
};

}  // namespace ccastream::base
