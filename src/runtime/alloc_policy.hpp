// Ghost-vertex allocation policies (paper §4 "Graph Construction",
// Figure 5): when a vertex fragment overflows and a ghost must be allocated
// on some compute cell, the policy picks the cell.
//
//  - Vicinity:   uniformly among cells within `radius` hops of the origin
//                (paper default: at most 2 hops) — keeps intra-vertex
//                operation latency minimal.
//  - Random:     uniformly over the whole chip — the paper's contrast case.
//  - RoundRobin: deterministic chip-wide rotation (load-balance contrast).
//  - Local:      always the origin cell (degenerate lower bound on hops;
//                exercises arena-exhaustion forwarding).
#pragma once

#include <cstdint>
#include <string_view>

#include "runtime/geometry.hpp"
#include "runtime/rng.hpp"

namespace ccastream::rt {

enum class AllocPolicyKind : std::uint8_t {
  kVicinity,
  kRandom,
  kRoundRobin,
  kLocal,
};

/// Returns a short stable name ("vicinity", "random", ...) for reports.
[[nodiscard]] std::string_view to_string(AllocPolicyKind kind) noexcept;

/// Chooses the compute cell that hosts a new ghost fragment for a vertex
/// whose overflowing fragment sits on `origin_cc`. `radius` applies to the
/// vicinity policy only; `rng` is the origin cell's generator (vicinity and
/// random draw from it). `cursor` is the origin cell's round-robin state:
/// each origin walks the whole chip in index order from its own cell, one
/// step per choice. Keying the walk by origin cell, rather than one global
/// call-order cursor, keeps it deterministic under the parallel engine.
[[nodiscard]] std::uint32_t choose_ghost_cell(AllocPolicyKind kind,
                                              std::uint32_t radius,
                                              std::uint32_t origin_cc,
                                              const MeshGeometry& mesh,
                                              Xoshiro256& rng,
                                              std::uint32_t& cursor);

}  // namespace ccastream::rt
