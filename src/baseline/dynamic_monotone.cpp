#include "baseline/dynamic_monotone.hpp"

#include <type_traits>
#include <utility>

#include "baseline/graph.hpp"

namespace ccastream::base {
namespace {

std::uint64_t arc_dst(std::uint64_t a) { return a; }
std::uint64_t arc_dst(const RefGraph::Arc& a) { return a.dst; }

}  // namespace

template <typename Rule>
DynamicMonotone<Rule>::DynamicMonotone(std::uint64_t num_vertices, Rule rule)
    : rule_(std::move(rule)), adj_(num_vertices), value_(num_vertices) {
  for (std::uint64_t v = 0; v < num_vertices; ++v) value_[v] = rule_.reset(v);
}

template <typename Rule>
bool DynamicMonotone<Rule>::in_range(std::uint64_t src, std::uint64_t dst) noexcept {
  if (src < adj_.size() && dst < adj_.size()) return true;
  ++rejected_;
  return false;
}

// Lowers a's head to step(from) when that improves it; true if it did.
template <typename Rule>
bool DynamicMonotone<Rule>::relax(std::uint64_t from, const Arc& a) noexcept {
  const std::uint64_t w = arc_dst(a);
  const std::uint64_t x = Rule::step(from, a);
  if (x >= value_[w]) return false;
  value_[w] = x;
  ++resettled_;
  return true;
}

// Whether `a`, leaving a vertex that held `from`, is an exact derivation of
// its head's value. A head at its reset value depends on no arc.
template <typename Rule>
bool DynamicMonotone<Rule>::carries(std::uint64_t from, const Arc& a) const noexcept {
  const std::uint64_t w = arc_dst(a);
  return from != kUnreached && value_[w] != rule_.reset(w) &&
         Rule::step(from, a) == value_[w];
}

template <typename Rule>
void DynamicMonotone<Rule>::insert_edge(std::uint64_t src, std::uint64_t dst,
                                        std::uint32_t weight) {
  if (!in_range(src, dst)) return;
  if constexpr (std::is_same_v<Arc, RefGraph::Arc>) {
    adj_[src].push_back({dst, weight});
  } else {
    adj_[src].push_back(dst);
  }
  if (value_[src] != kUnreached && relax(value_[src], adj_[src].back())) {
    flood({dst});
  }
}

template <typename Rule>
void DynamicMonotone<Rule>::delete_edge(std::uint64_t src, std::uint64_t dst) {
  if (!in_range(src, dst)) return;
  // Delete-all-matches; remember whether any removed arc could have carried
  // dst's value.
  bool carried = false;
  const auto removed =
      static_cast<std::uint64_t>(std::erase_if(adj_[src], [&](const Arc& a) {
        if (arc_dst(a) != dst) return false;
        carried = carried || carries(value_[src], a);
        return true;
      }));
  if (removed == 0) return;
  deleted_ += removed;
  if (!carried) return;
  invalidate_from(dst);
  // Every settled value is exact again, so monotone relaxation from all of
  // them restores the fixed point of the current adjacency.
  std::deque<std::uint64_t> survivors;
  for (std::uint64_t u = 0; u < adj_.size(); ++u) {
    if (value_[u] != kUnreached) survivors.push_back(u);
  }
  flood(std::move(survivors));
}

template <typename Rule>
void DynamicMonotone<Rule>::apply(const StreamEdge& e) {
  if (e.is_delete()) {
    delete_edge(e.src, e.dst);
  } else {
    insert_edge(e.src, e.dst, e.weight);
  }
}

template <typename Rule>
void DynamicMonotone<Rule>::apply_increment(std::span<const StreamEdge> edges) {
  for (const auto& e : edges) {
    if (e.is_delete()) apply(e);
  }
  for (const auto& e : edges) {
    if (!e.is_delete()) apply(e);
  }
}

// Breadth-first relaxation from the queued vertices, each of which holds a
// value other than kUnreached.
template <typename Rule>
void DynamicMonotone<Rule>::flood(std::deque<std::uint64_t> q) {
  while (!q.empty()) {
    const std::uint64_t u = q.front();
    q.pop_front();
    for (const Arc& a : adj_[u]) {
      if (relax(value_[u], a)) q.push_back(arc_dst(a));
    }
  }
}

// Forward closure over exact-derivation arcs, judged by each cleared
// vertex's frozen old value. A cleared vertex holds its reset value, which
// `carries` never matches, so each vertex is cleared at most once and the
// closure is order-independent.
template <typename Rule>
void DynamicMonotone<Rule>::invalidate_from(std::uint64_t v) {
  std::deque<std::pair<std::uint64_t, std::uint64_t>> q;  // (vertex, old value)
  q.emplace_back(v, value_[v]);
  value_[v] = rule_.reset(v);
  ++invalidated_;
  while (!q.empty()) {
    const auto [u, old] = q.front();
    q.pop_front();
    for (const Arc& a : adj_[u]) {
      if (!carries(old, a)) continue;
      const std::uint64_t w = arc_dst(a);
      q.emplace_back(w, value_[w]);
      value_[w] = rule_.reset(w);
      ++invalidated_;
    }
  }
}

template <typename Rule>
std::vector<std::uint64_t> DynamicMonotone<Rule>::recompute() const {
  RefGraph g(adj_.size());
  for (std::uint64_t u = 0; u < adj_.size(); ++u) {
    for (const Arc& a : adj_[u]) {
      if constexpr (std::is_same_v<Arc, RefGraph::Arc>) {
        g.add_edge(u, a.dst, a.weight);
      } else {
        g.add_edge(u, a);
      }
    }
  }
  return rule_.ground_truth(g);
}

template class DynamicMonotone<BfsRule>;
template class DynamicMonotone<SsspRule>;
template class DynamicMonotone<LabelRule>;

}  // namespace ccastream::base
