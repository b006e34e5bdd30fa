// Stochastic block model generator — the synthetic stand-in for MIT's
// Streaming GraphChallenge partition datasets (which are themselves
// SBM-generated; see DESIGN.md §2 for the substitution rationale).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/stream_edge.hpp"

namespace ccastream::wl {

struct SbmParams {
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint32_t num_blocks = 32;   ///< Communities (contiguous vid ranges).
  double intra_prob = 0.7;         ///< P(edge stays inside its block).
  double degree_skew = 1.0;        ///< >1 skews endpoint choice to low ids
                                   ///< inside a block (degree-corrected SBM).
  bool allow_self_loops = false;
  std::uint64_t seed = 42;
};

/// Generates `num_edges` directed edges (a multigraph; duplicates possible,
/// as in a raw observation stream). Throws std::invalid_argument when no
/// such graph exists: zero vertices, or edges on one vertex without
/// `allow_self_loops`.
[[nodiscard]] std::vector<StreamEdge> generate_sbm(const SbmParams& params);

}  // namespace ccastream::wl
