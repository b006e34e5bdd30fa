#include "runtime/alloc_policy.hpp"

#include <vector>

namespace ccastream::rt {

std::string_view to_string(AllocPolicyKind kind) noexcept {
  switch (kind) {
    case AllocPolicyKind::kVicinity: return "vicinity";
    case AllocPolicyKind::kRandom: return "random";
    case AllocPolicyKind::kRoundRobin: return "round-robin";
    case AllocPolicyKind::kLocal: return "local";
  }
  return "unknown";
}

std::uint32_t choose_ghost_cell(AllocPolicyKind kind, std::uint32_t radius,
                                std::uint32_t origin_cc, const MeshGeometry& mesh,
                                Xoshiro256& rng, std::uint32_t& cursor) {
  switch (kind) {
    case AllocPolicyKind::kVicinity: {
      // Enumerate cells at Manhattan distance 1..radius around the origin.
      // The candidate set is tiny (2r(r+1) cells for radius r), so direct
      // enumeration per call is cheap and avoids any per-cell cached state.
      const Coord o = mesh.coord_of(origin_cc);
      std::vector<std::uint32_t> candidates;
      candidates.reserve(2 * radius * (radius + 1));
      const auto r = static_cast<std::int64_t>(radius);
      for (std::int64_t dy = -r; dy <= r; ++dy) {
        const std::int64_t rem = r - (dy < 0 ? -dy : dy);
        for (std::int64_t dx = -rem; dx <= rem; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const std::int64_t x = static_cast<std::int64_t>(o.x) + dx;
          const std::int64_t y = static_cast<std::int64_t>(o.y) + dy;
          if (x < 0 || y < 0) continue;
          const Coord c{static_cast<std::uint32_t>(x), static_cast<std::uint32_t>(y)};
          if (!mesh.contains(c)) continue;
          candidates.push_back(mesh.index_of(c));
        }
      }
      if (candidates.empty()) return origin_cc;  // 1x1 mesh: nowhere else to go.
      return candidates[rng.below(candidates.size())];
    }
    case AllocPolicyKind::kRandom:
      return static_cast<std::uint32_t>(rng.below(mesh.cell_count()));
    case AllocPolicyKind::kRoundRobin: {
      // Anchoring each origin's walk at its own cell keeps concurrent early
      // allocations spread across the whole chip (cursor-from-zero would
      // point every origin's first ghost at cell 0, piling load onto low
      // indices).
      const auto cc =
          static_cast<std::uint32_t>((origin_cc + cursor) % mesh.cell_count());
      ++cursor;
      return cc;
    }
    case AllocPolicyKind::kLocal: return origin_cc;
  }
  return origin_cc;
}

}  // namespace ccastream::rt
