#include "graph/fragment.hpp"

namespace ccastream::graph {

std::size_t VertexFragment::logical_bytes() const noexcept {
  // Modelled scratchpad layout: a 48-byte fragment header (id, root pointer,
  // flags, app words), 12 bytes per edge slot (packed address + weight), and
  // the per-ghost future state.
  constexpr std::size_t kHeaderBytes = 48;
  constexpr std::size_t kEdgeSlotBytes = 12;
  return kHeaderBytes + static_cast<std::size_t>(edge_capacity) * kEdgeSlotBytes +
         ghosts.size() * rt::FutureAddr::logical_bytes();
}

ChainForward forward_down_chain(rt::Context& ctx, VertexFragment& frag,
                                rt::Action a) {
  ChainForward out;
  for (rt::FutureAddr& ghost : frag.ghosts) {
    if (ghost.is_ready() && !ghost.value().is_null()) {
      a.target = ghost.value();
      ctx.propagate(a);
      ++out.propagated;
    } else if (ghost.is_pending()) {
      a.target = rt::kNullAddress;
      ghost.enqueue(a);
      ++out.parked;
    }
  }
  return out;
}

}  // namespace ccastream::graph
