#include "graph/fragment.hpp"

#include <new>

namespace ccastream::graph {

namespace {

/// Offset of a fragment's ghost futures in its block: after the header
/// and the edge slots, aligned for rt::FutureAddr.
constexpr std::size_t futures_offset(std::uint32_t edge_capacity) noexcept {
  constexpr std::size_t kAlign = alignof(rt::FutureAddr);
  const std::size_t end_of_slots =
      sizeof(VertexFragment) + std::size_t{edge_capacity} * sizeof(EdgeRecord);
  return (end_of_slots + kAlign - 1) / kAlign * kAlign;
}

static_assert(sizeof(VertexFragment) % alignof(EdgeRecord) == 0,
              "edge slots start right after the header");
static_assert(alignof(VertexFragment) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

}  // namespace

std::unique_ptr<VertexFragment> VertexFragment::make(std::uint64_t vertex_id,
                                                     bool as_root,
                                                     const RpvoConfig& cfg,
                                                     const AppState& app_init) {
  const std::size_t ghosts_at = futures_offset(cfg.edge_capacity);
  auto* block = static_cast<std::byte*>(::operator new(
      ghosts_at + std::size_t{cfg.ghost_fanout} * sizeof(rt::FutureAddr)));
  auto* slots = reinterpret_cast<EdgeRecord*>(block + sizeof(VertexFragment));
  auto* futures = reinterpret_cast<rt::FutureAddr*>(block + ghosts_at);
  // Nothing throws once the block exists: the header and the futures are
  // noexcept to build, and an edge slot is written on push_back.
  return std::unique_ptr<VertexFragment>(
      ::new (block) VertexFragment(vertex_id, as_root, cfg, app_init, slots, futures));
}

VertexFragment::VertexFragment(std::uint64_t vertex_id, bool as_root,
                               const RpvoConfig& cfg, const AppState& app_init,
                               EdgeRecord* slots, rt::FutureAddr* futures)
    : vid(vertex_id),
      is_root(as_root),
      edges(slots, cfg.edge_capacity),
      ghosts(futures, cfg.ghost_fanout),
      app(app_init) {
  std::uninitialized_default_construct(ghosts.begin(), ghosts.end());
}

VertexFragment::~VertexFragment() { std::destroy(ghosts.begin(), ghosts.end()); }

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
