#include "apps/monotone.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace ccastream::apps {

using graph::VertexFragment;

MonotoneApp::MonotoneApp(graph::GraphProtocol& protocol, Policy policy)
    : proto_(protocol), policy_(std::move(policy)) {
  rt::HandlerRegistry& handlers = proto_.chip().handlers();
  h_value_ = handlers.register_handler(
      "app." + policy_.name,
      [this](rt::Context& ctx, const rt::Action& a) { handle_value(ctx, a); });
  h_unsettle_ = handlers.register_handler(
      "app." + policy_.name + "-unsettle",
      [this](rt::Context& ctx, const rt::Action& a) { handle_unsettle(ctx, a); });
  h_resettle_ = handlers.register_handler(
      "app." + policy_.name + "-resettle",
      [this](rt::Context& ctx, const rt::Action& a) { handle_resettle(ctx, a); });
}

graph::AppHooks MonotoneApp::make_hooks() const {
  graph::AppHooks hooks;
  hooks.ghost_init[policy_.word] = policy_.unsettled;
  // Listing 4: after inserting an edge, inform the destination vertex about
  // it — but only if this fragment has a settled value.
  hooks.on_edge_inserted = [this](rt::Context& ctx, VertexFragment& frag,
                                  const graph::EdgeRecord& e) {
    const rt::Word value = frag.app[policy_.word];
    if (value != policy_.unsettled) {
      ctx.propagate(rt::make_action(h_value_, e.dst, step(value, e)));
      ctx.charge(1);
    }
  };
  // A new ghost joined the chain: push the current value down the link so
  // edges already parked at the ghost diffuse correctly.
  hooks.on_ghost_linked = [this](rt::Context& ctx, VertexFragment& frag,
                                 rt::GlobalAddress ghost) {
    const rt::Word value = frag.app[policy_.word];
    if (value != policy_.unsettled) {
      ctx.propagate(rt::make_action(h_value_, ghost, value));
      ctx.charge(1);
    }
  };
  // Deletion repair: stream_increment suppresses the on-cell hooks for the
  // structural phases and calls these host-side seeds between quiescent
  // runs.
  hooks.host_repair.invalidate = [this](graph::StreamingGraph& g,
                                        std::span<const StreamEdge> ops) {
    return seed_invalidation(g, ops);
  };
  hooks.host_repair.resettle = [this](graph::StreamingGraph& g,
                                      std::span<const StreamEdge> ops,
                                      bool invalidated) {
    seed_resettle(g, ops, invalidated);
  };
  return hooks;
}

void MonotoneApp::install() { proto_.set_hooks(make_hooks()); }

void MonotoneApp::seed(graph::StreamingGraph& g, std::uint64_t vid,
                       rt::Word value) const {
  g.set_root_app_word(vid, policy_.word, value);
}

void MonotoneApp::kick(graph::StreamingGraph& g, std::uint64_t vid,
                       rt::Word value) const {
  g.chip().inject_local(rt::make_action(h_value_, g.root_of(vid), value));
}

rt::Word MonotoneApp::value_of(const graph::StreamingGraph& g,
                               std::uint64_t vid) const {
  return g.app_word(vid, policy_.word);
}

void MonotoneApp::diffuse(rt::Context& ctx, VertexFragment& frag,
                          rt::HandlerId edge_handler,
                          rt::HandlerId chain_handler, rt::Word value) const {
  ctx.charge(static_cast<std::uint32_t>(frag.edges.size()));
  for (const graph::EdgeRecord& e : frag.edges) {
    ctx.propagate(rt::make_action(edge_handler, e.dst, step(value, e)));
  }
  graph::forward_down_chain(
      ctx, frag, rt::make_action(chain_handler, rt::kNullAddress, value));
}

// Listing 5: (if (> (vertex-value v) val) { set value; diffuse }).
void MonotoneApp::handle_value(rt::Context& ctx, const rt::Action& a) const {
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) return;  // dropped waiter of a failed allocation
  const rt::Word val = a.args[0];
  ctx.charge(1);
  if (val >= frag->app[policy_.word]) return;  // no improvement: diffusion dies

  frag->app[policy_.word] = val;
  diffuse(ctx, *frag, h_value_, h_value_, val);
  if (!frag->rhizome_next.is_null()) {
    ctx.propagate(rt::make_action(h_value_, frag->rhizome_next, val));
  }
}

// <name>-unsettle(v, expected): exact-derivation invalidation wave (header
// comment). Only fires when the fragment still sits exactly at `expected`;
// at chain quiescence every fragment of a vertex holds the vertex's value,
// so the whole chain clears together.
void MonotoneApp::handle_unsettle(rt::Context& ctx, const rt::Action& a) const {
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) return;
  const rt::Word expected = a.args[0];
  ctx.charge(1);
  // A self-derived value (components: label == own vid) depends on no edge
  // and must survive every wave.
  if (policy_.reset == ResetTo::kSelfId && frag->vid == expected) return;
  if (frag->app[policy_.word] != expected) return;  // survived, or cleared

  frag->app[policy_.word] =
      policy_.reset == ResetTo::kSelfId ? frag->vid : policy_.unsettled;
  diffuse(ctx, *frag, h_unsettle_, h_unsettle_, expected);
}

// <name>-resettle(v, val): adopt val if better, then re-diffuse the current
// value along all local edges through <name> WITHOUT requiring an
// improvement at this fragment — the seed that lets monotone diffusion flow
// back into the invalidated region (and perform diffusion for edges
// inserted while the on-cell hooks were suppressed).
void MonotoneApp::handle_resettle(rt::Context& ctx, const rt::Action& a) const {
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) return;
  const rt::Word val = a.args[0];
  ctx.charge(1);
  if (val < frag->app[policy_.word]) frag->app[policy_.word] = val;
  const rt::Word value = frag->app[policy_.word];
  if (value == policy_.unsettled) return;

  diffuse(ctx, *frag, h_value_, h_resettle_, value);
}

// Phase I seed: a deleted edge (u, v) can only have carried v's value if
// the frozen pre-increment pair (value(u), value(v)) satisfies the
// policy's SeedWhen (app state is frozen through the structural phases, so
// reading it here reads exactly the pre-increment fixed point). Duplicate
// seeds for the same v are harmless — the wave is idempotent (the second
// arrival finds the value already cleared).
bool MonotoneApp::seed_invalidation(graph::StreamingGraph& g,
                                    std::span<const StreamEdge> ops) const {
  bool any = false;
  for (const StreamEdge& e : ops) {
    if (!e.is_delete()) continue;
    const rt::Word vu = g.app_word(e.src, policy_.word);
    const rt::Word vv = g.app_word(e.dst, policy_.word);
    bool hit = false;
    switch (policy_.seed) {
      case SeedWhen::kExactPlusOne:
        hit = vu != policy_.unsettled && vv == vu + 1;
        break;
      case SeedWhen::kDownstream:
        hit = vu != policy_.unsettled && vv != policy_.unsettled && vv > vu;
        break;
      case SeedWhen::kSameLabel:
        // A label equal to dst's own vid is self-derived; it cannot have
        // crossed the deleted edge (see ResetTo::kSelfId).
        hit = vv == vu && vv != e.dst;
        break;
    }
    if (hit) {
      g.chip().io_enqueue(rt::make_action(h_unsettle_, g.root_of(e.dst), vv));
      any = true;
    }
  }
  return any;
}

// Phase R seed. When anything was invalidated, every still-settled vertex
// re-diffuses (its value is provably exact, and collectively the surviving
// frontier dominates every derivation path into the cleared region). When
// nothing was invalidated, only the increment's insert sources need a kick
// — their diffusion was deferred while hooks were suppressed.
void MonotoneApp::seed_resettle(graph::StreamingGraph& g,
                                std::span<const StreamEdge> ops,
                                bool invalidated) const {
  const auto kick_resettle = [&](std::uint64_t vid) {
    const rt::Word value = g.app_word(vid, policy_.word);
    if (value != policy_.unsettled) {
      g.chip().io_enqueue(rt::make_action(h_resettle_, g.root_of(vid), value));
    }
  };
  if (invalidated) {
    for (std::uint64_t vid = 0; vid < g.num_vertices(); ++vid) kick_resettle(vid);
    return;
  }
  std::vector<std::uint64_t> srcs;
  for (const StreamEdge& e : ops) {
    if (!e.is_delete()) srcs.push_back(e.src);
  }
  std::sort(srcs.begin(), srcs.end());
  srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());
  for (const std::uint64_t vid : srcs) kick_resettle(vid);
}

}  // namespace ccastream::apps
