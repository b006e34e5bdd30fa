#include "baseline/algorithms.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <unordered_set>

namespace ccastream::base {

std::vector<std::uint64_t> bfs_levels(const RefGraph& g, std::uint64_t source) {
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

std::vector<std::uint64_t> sssp_distances(const RefGraph& g, std::uint64_t source) {
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

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::uint64_t n) : parent_(n) {
    for (std::uint64_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::uint64_t find(std::uint64_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint64_t a, std::uint64_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::uint64_t> parent_;
};

}  // namespace

std::vector<std::uint64_t> component_min_labels(const RefGraph& g) {
  UnionFind uf(g.num_vertices());
  for (std::uint64_t u = 0; u < g.num_vertices(); ++u) {
    for (const auto& arc : g.out(u)) uf.unite(u, arc.dst);
  }
  std::vector<std::uint64_t> min_of(g.num_vertices(), kUnreached);
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v) {
    const std::uint64_t r = uf.find(v);
    min_of[r] = std::min(min_of[r], v);
  }
  std::vector<std::uint64_t> label(g.num_vertices());
  for (std::uint64_t v = 0; v < g.num_vertices(); ++v) label[v] = min_of[uf.find(v)];
  return label;
}

// Ascending-id BFS sweeps: vertex v seeds a sweep only if nothing smaller
// reached it; the sweep prunes at already-labelled vertices (their closure
// was labelled by a smaller seed). Each vertex is visited once — O(V + E).
std::vector<std::uint64_t> min_reaching_labels(const RefGraph& g) {
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

std::uint64_t closed_wedges(const RefGraph& g) {
  // Adjacency sets for O(1) membership tests.
  std::vector<std::unordered_set<std::uint64_t>> nbr(g.num_vertices());
  for (std::uint64_t u = 0; u < g.num_vertices(); ++u) {
    for (const auto& arc : g.out(u)) nbr[u].insert(arc.dst);
  }
  std::uint64_t total = 0;
  for (std::uint64_t u = 0; u < g.num_vertices(); ++u) {
    const auto& out = g.out(u);
    for (std::size_t i = 0; i + 1 < out.size(); ++i) {
      for (std::size_t j = i + 1; j < out.size(); ++j) {
        if (nbr[out[i].dst].contains(out[j].dst)) ++total;
      }
    }
  }
  return total;
}

double jaccard(const RefGraph& g, std::uint64_t u, std::uint64_t v) {
  std::unordered_set<std::uint64_t> nu, nv;
  for (const auto& arc : g.out(u)) nu.insert(arc.dst);
  for (const auto& arc : g.out(v)) nv.insert(arc.dst);
  std::uint64_t common = 0;
  for (const auto x : nu) {
    if (nv.contains(x)) ++common;
  }
  const std::uint64_t uni = nu.size() + nv.size() - common;
  return uni == 0 ? 0.0 : static_cast<double>(common) / static_cast<double>(uni);
}

std::vector<double> pagerank(const RefGraph& g, double damping, double epsilon) {
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
