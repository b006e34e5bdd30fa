// Reference algorithms: the correctness oracles for every on-chip
// application, and the sequential baselines for benchmarks. The four
// traversals (BFS, SSSP, min-reaching labels, PageRank) are templates over
// any ArcGraph and live here; the rest take a RefGraph (algorithms.cpp).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "baseline/graph.hpp"

namespace ccastream::base {

inline constexpr std::uint64_t kUnreached = std::numeric_limits<std::uint64_t>::max();

/// What the four traversals below read of a graph: num_vertices(), and
/// out(v), a sized range of v's arcs, each with a `dst` (and a `weight`,
/// which sssp_distances reads). RefGraph is one; another is read in place,
/// with no copy into a RefGraph (the streaming service's latched views).
template <typename G>
concept ArcGraph = requires(const G& g, std::uint64_t v) {
  { g.num_vertices() } -> std::convertible_to<std::uint64_t>;
  { g.out(v).size() } -> std::convertible_to<std::size_t>;
  { g.out(v).begin()->dst } -> std::convertible_to<std::uint64_t>;
};

/// Directed BFS levels from `source` (kUnreached where unreachable).
template <ArcGraph G>
[[nodiscard]] std::vector<std::uint64_t> bfs_levels(const G& g,
                                                    std::uint64_t source) {
  std::vector<std::uint64_t> level(g.num_vertices(), kUnreached);
  if (source >= g.num_vertices()) return level;
  std::deque<std::uint64_t> q{source};
  level[source] = 0;
  while (!q.empty()) {
    const std::uint64_t u = q.front();
    q.pop_front();
    for (const auto& arc : g.out(u)) {
      if (level[arc.dst] == kUnreached) {
        level[arc.dst] = level[u] + 1;
        q.push_back(arc.dst);
      }
    }
  }
  return level;
}

/// Dijkstra distances from `source` (non-negative weights).
template <ArcGraph G>
[[nodiscard]] std::vector<std::uint64_t> sssp_distances(const G& g,
                                                        std::uint64_t source) {
  std::vector<std::uint64_t> dist(g.num_vertices(), kUnreached);
  if (source >= g.num_vertices()) return dist;
  using Item = std::pair<std::uint64_t, std::uint64_t>;  // (dist, vertex)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0;
  pq.emplace(0, source);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    for (const auto& arc : g.out(u)) {
      const std::uint64_t nd = d + arc.weight;
      if (nd < dist[arc.dst]) {
        dist[arc.dst] = nd;
        pq.emplace(nd, arc.dst);
      }
    }
  }
  return dist;
}

/// Per-vertex minimum vertex id of the *undirected* connected component
/// (edges treated as bidirectional; union-find).
[[nodiscard]] std::vector<std::uint64_t> component_min_labels(const RefGraph& g);

/// Directed min-reaching labels: label(v) = min{ u : u reaches v along
/// arcs }, and every vertex reaches itself. This is the fixed point the
/// streamed components app computes. On a symmetric graph it equals
/// component_min_labels, but a sliding window can expire the two arcs of a
/// pair in different increments, so windowed runs are checked against it.
///
/// Ascending-id BFS sweeps: vertex v seeds a sweep only if nothing smaller
/// reached it; the sweep prunes at already-labelled vertices (their closure
/// was labelled by a smaller seed). Each vertex is visited once — O(V + E).
template <ArcGraph G>
[[nodiscard]] std::vector<std::uint64_t> min_reaching_labels(const G& g) {
  std::vector<std::uint64_t> label(g.num_vertices(), kUnreached);
  std::deque<std::uint64_t> q;
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v) {
    if (label[v] != kUnreached) continue;
    label[v] = v;
    q.push_back(v);
    while (!q.empty()) {
      const std::uint64_t u = q.front();
      q.pop_front();
      for (const auto& arc : g.out(u)) {
        if (label[arc.dst] == kUnreached) {
          label[arc.dst] = v;
          q.push_back(arc.dst);
        }
      }
    }
  }
  return label;
}

/// Closed wedges: sum over u of unordered neighbour pairs {v, w} of u with
/// an edge between v and w. On a simple undirected graph (both arc
/// directions present) this equals 3x the triangle count — the exact
/// quantity the on-chip TriangleCounter measures.
[[nodiscard]] std::uint64_t closed_wedges(const RefGraph& g);

/// Jaccard coefficient of the out-neighbour sets of u and v.
[[nodiscard]] double jaccard(const RefGraph& g, std::uint64_t u, std::uint64_t v);

/// Sequential delta-push PageRank to residual threshold epsilon, matching
/// the semantics of the on-chip apps::PageRank (rank + final residual).
template <ArcGraph G>
[[nodiscard]] std::vector<double> pagerank(const G& g, double damping,
                                           double epsilon) {
  const std::uint64_t n = g.num_vertices();
  std::vector<double> rank(n, 0.0), residual(n, 1.0 - damping);
  std::deque<std::uint64_t> q;
  std::vector<bool> queued(n, false);
  for (std::uint64_t v = 0; v < n; ++v) {
    if (residual[v] >= epsilon) {
      q.push_back(v);
      queued[v] = true;
    }
  }
  while (!q.empty()) {
    const std::uint64_t u = q.front();
    q.pop_front();
    queued[u] = false;
    const double res = residual[u];
    if (res < epsilon) continue;
    rank[u] += res;
    residual[u] = 0.0;
    const auto& out = g.out(u);
    if (out.empty()) continue;
    const double per_edge = damping * res / static_cast<double>(out.size());
    for (const auto& arc : out) {
      residual[arc.dst] += per_edge;
      if (residual[arc.dst] >= epsilon && !queued[arc.dst]) {
        q.push_back(arc.dst);
        queued[arc.dst] = true;
      }
    }
  }
  for (std::uint64_t v = 0; v < n; ++v) rank[v] += residual[v];
  return rank;
}

}  // namespace ccastream::base
