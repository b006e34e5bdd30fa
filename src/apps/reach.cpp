#include "apps/reach.hpp"

#include <bit>
#include <stdexcept>

namespace ccastream::apps {

using graph::VertexFragment;

namespace {

rt::Action reach_action(rt::HandlerId h, rt::GlobalAddress target,
                        const rt::Payload& mask) {
  rt::Action a;
  a.handler = h;
  a.target = target;
  a.nargs = rt::kPayloadWords;
  a.args = mask;
  return a;
}

rt::Payload state_of(const VertexFragment& frag) {
  rt::Payload p{};
  for (std::size_t w = 0; w < graph::kAppWords; ++w) p[w] = frag.app[w];
  return p;
}

bool any(const rt::Payload& p) {
  for (const auto w : p) {
    if (w != 0) return true;
  }
  return false;
}

void check_source_index(std::size_t source_index) {
  if (source_index >= MultiSourceReach::kMaxSources) {
    throw std::out_of_range("MultiSourceReach: source index exceeds 256");
  }
}

}  // namespace

MultiSourceReach::MultiSourceReach(graph::GraphProtocol& protocol)
    : proto_(protocol) {
  h_reach_ = proto_.chip().handlers().register_handler(
      "app.reach",
      [this](rt::Context& ctx, const rt::Action& a) { handle_reach(ctx, a); });
}

graph::AppHooks MultiSourceReach::make_hooks() const {
  graph::AppHooks hooks;
  hooks.ghost_init = initial_state();
  hooks.on_edge_inserted = [this](rt::Context& ctx, VertexFragment& frag,
                                  const graph::EdgeRecord& e) {
    const rt::Payload mask = state_of(frag);
    if (any(mask)) {
      ctx.propagate(reach_action(h_reach_, e.dst, mask));
      ctx.charge(1);
    }
  };
  hooks.on_ghost_linked = [this](rt::Context& ctx, VertexFragment& frag,
                                 rt::GlobalAddress ghost) {
    const rt::Payload mask = state_of(frag);
    if (any(mask)) {
      ctx.propagate(reach_action(h_reach_, ghost, mask));
      ctx.charge(1);
    }
  };
  return hooks;
}

void MultiSourceReach::install() { proto_.set_hooks(make_hooks()); }

void MultiSourceReach::add_source(graph::StreamingGraph& g, std::uint64_t vid,
                                  std::size_t source_index) const {
  check_source_index(source_index);
  const auto word = source_index / 64;
  const auto bit = source_index % 64;
  const rt::Word prev = g.app_word(vid, word);
  g.set_root_app_word(vid, word, prev | (rt::Word{1} << bit));
}

bool MultiSourceReach::reached(const graph::StreamingGraph& g, std::uint64_t vid,
                               std::size_t source_index) const {
  check_source_index(source_index);
  const auto word = source_index / 64;
  const auto bit = source_index % 64;
  return (g.app_word(vid, word) >> bit) & 1;
}

std::uint32_t MultiSourceReach::reach_count(const graph::StreamingGraph& g,
                                            std::uint64_t vid) const {
  std::uint32_t n = 0;
  for (std::size_t w = 0; w < graph::kAppWords; ++w) {
    n += static_cast<std::uint32_t>(std::popcount(g.app_word(vid, w)));
  }
  return n;
}

bool MultiSourceReach::merge(VertexFragment& frag, const rt::Payload& mask,
                             rt::Payload& fresh) {
  bool grew = false;
  for (std::size_t w = 0; w < graph::kAppWords; ++w) {
    fresh[w] = mask[w] & ~frag.app[w];
    if (fresh[w] != 0) {
      frag.app[w] |= fresh[w];
      grew = true;
    }
  }
  return grew;
}

void MultiSourceReach::handle_reach(rt::Context& ctx, const rt::Action& a) {
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) return;
  ctx.charge(2);

  rt::Payload fresh{};
  if (!merge(*frag, a.args, fresh)) return;  // no new bits: diffusion dies

  // Only the fresh bits re-diffuse (bits the neighbours may already have
  // get filtered again at their end — monotone and idempotent).
  ctx.charge(static_cast<std::uint32_t>(frag->edges.size()));
  for (const graph::EdgeRecord& e : frag->edges) {
    ctx.propagate(reach_action(h_reach_, e.dst, fresh));
  }
  graph::forward_down_chain(ctx, *frag,
                            reach_action(h_reach_, rt::kNullAddress, fresh));
  if (!frag->rhizome_next.is_null()) {
    ctx.propagate(reach_action(h_reach_, frag->rhizome_next, fresh));
  }
}

}  // namespace ccastream::apps
