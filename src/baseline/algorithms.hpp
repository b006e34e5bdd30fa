// Reference algorithms over RefGraph: the correctness oracles for every
// on-chip application, and the sequential baselines for benchmarks.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "baseline/graph.hpp"

namespace ccastream::base {

inline constexpr std::uint64_t kUnreached = std::numeric_limits<std::uint64_t>::max();

/// Directed BFS levels from `source` (kUnreached where unreachable).
[[nodiscard]] std::vector<std::uint64_t> bfs_levels(const RefGraph& g,
                                                    std::uint64_t source);

/// Dijkstra distances from `source` (non-negative weights).
[[nodiscard]] std::vector<std::uint64_t> sssp_distances(const RefGraph& g,
                                                        std::uint64_t source);

/// Per-vertex minimum vertex id of the *undirected* connected component
/// (edges treated as bidirectional; union-find).
[[nodiscard]] std::vector<std::uint64_t> component_min_labels(const RefGraph& g);

/// Directed min-reaching labels: label(v) = min{ u : u reaches v along
/// arcs }, and every vertex reaches itself. This is the fixed point the
/// streamed components app computes. On a symmetric graph it equals
/// component_min_labels, but a sliding window can expire the two arcs of a
/// pair in different increments, so windowed runs are checked against it.
[[nodiscard]] std::vector<std::uint64_t> min_reaching_labels(const RefGraph& g);

/// Closed wedges: sum over u of unordered neighbour pairs {v, w} of u with
/// an edge between v and w. On a simple undirected graph (both arc
/// directions present) this equals 3x the triangle count — the exact
/// quantity the on-chip TriangleCounter measures.
[[nodiscard]] std::uint64_t closed_wedges(const RefGraph& g);

/// Jaccard coefficient of the out-neighbour sets of u and v.
[[nodiscard]] double jaccard(const RefGraph& g, std::uint64_t u, std::uint64_t v);

/// Sequential delta-push PageRank to residual threshold epsilon, matching
/// the semantics of the on-chip apps::PageRank (rank + final residual).
[[nodiscard]] std::vector<double> pagerank(const RefGraph& g, double damping,
                                           double epsilon);

}  // namespace ccastream::base
