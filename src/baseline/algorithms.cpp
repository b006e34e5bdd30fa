#include "baseline/algorithms.hpp"

#include <algorithm>
#include <unordered_set>

namespace ccastream::base {

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

}  // namespace ccastream::base
