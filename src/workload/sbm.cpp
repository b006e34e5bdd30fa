#include "workload/sbm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/rng.hpp"

namespace ccastream::wl {

namespace {

/// Picks a vertex inside [lo, hi) with optional power-law skew toward lo.
std::uint64_t pick_in_range(rt::Xoshiro256& rng, std::uint64_t lo, std::uint64_t hi,
                            double skew) {
  const std::uint64_t size = hi - lo;
  if (size == 0) return lo;
  if (skew <= 1.0) return lo + rng.below(size);
  const double u = rng.uniform();
  const auto idx = static_cast<std::uint64_t>(std::pow(u, skew) *
                                              static_cast<double>(size));
  return lo + (idx >= size ? size - 1 : idx);
}

}  // namespace

std::vector<StreamEdge> generate_sbm(const SbmParams& p) {
  if (p.num_vertices == 0) {
    throw std::invalid_argument("generate_sbm: the graph needs a vertex");
  }
  if (p.num_vertices == 1 && p.num_edges > 0 && !p.allow_self_loops) {
    // The only possible edge is a self-loop, which would be redrawn forever.
    throw std::invalid_argument(
        "generate_sbm: one vertex has no edge but a self-loop, and "
        "self-loops are not allowed");
  }
  rt::Xoshiro256 rng(p.seed);

  const std::uint64_t requested_blocks =
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(p.num_blocks, p.num_vertices));
  const std::uint64_t block_size =
      (p.num_vertices + requested_blocks - 1) / requested_blocks;
  // Rounding block_size up can leave trailing blocks empty; only sample
  // from blocks that actually contain vertices.
  const std::uint64_t blocks = (p.num_vertices + block_size - 1) / block_size;
  auto block_range = [&](std::uint64_t b) {
    const std::uint64_t lo = b * block_size;
    const std::uint64_t hi = std::min(p.num_vertices, lo + block_size);
    return std::pair{lo, hi};
  };

  std::vector<StreamEdge> edges;
  edges.reserve(p.num_edges);
  while (edges.size() < p.num_edges) {
    const std::uint64_t b_src = rng.below(blocks);
    const std::uint64_t b_dst = rng.bernoulli(p.intra_prob) ? b_src : rng.below(blocks);
    const auto [slo, shi] = block_range(b_src);
    const auto [dlo, dhi] = block_range(b_dst);
    const std::uint64_t u = pick_in_range(rng, slo, shi, p.degree_skew);
    const std::uint64_t v = pick_in_range(rng, dlo, dhi, p.degree_skew);
    if (!p.allow_self_loops && u == v) continue;
    edges.push_back(StreamEdge{u, v, 1});
  }
  return edges;
}

}  // namespace ccastream::wl
