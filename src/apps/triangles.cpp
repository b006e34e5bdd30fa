#include "apps/triangles.hpp"

#include <cassert>
#include <stdexcept>

#include "runtime/check.hpp"

namespace ccastream::apps {

using graph::VertexFragment;
// Probes run on a quiescent chip, so ghost futures are either empty (end of
// chain) or ready: forward_down_chain never parks here.
using graph::forward_down_chain;

// ---------------------------------------------------------------------------
// TriangleCounter
// ---------------------------------------------------------------------------

TriangleCounter::TriangleCounter(graph::GraphProtocol& protocol)
    : proto_(protocol) {
  assert(proto_.rpvo_config().ghost_fanout == 1 &&
         "triangle counting requires a chain RPVO (ghost_fanout == 1)");
  h_kick_ = proto_.chip().handlers().register_handler(
      "app.tri-kick",
      [this](rt::Context& ctx, const rt::Action& a) { handle_kick(ctx, a); });
  h_cross_ = proto_.chip().handlers().register_handler(
      "app.tri-cross",
      [this](rt::Context& ctx, const rt::Action& a) { handle_cross(ctx, a); });
  h_probe_ = proto_.chip().handlers().register_handler(
      "app.tri-probe",
      [this](rt::Context& ctx, const rt::Action& a) { handle_probe(ctx, a); });
}

void TriangleCounter::start(graph::StreamingGraph& g) const {
  if (g.rhizome_count() != 1) {
    throw std::invalid_argument(
        "TriangleCounter requires rhizomes == 1: probes only walk one "
        "rhizome's chain");
  }
  if (g.protocol().stats().edges_deleted > 0 ||
      g.protocol().stats().deletes_unmatched > 0) {
    // Wedge counts accumulated during streaming are not unwound by
    // structural deletion — a deleted graph would report phantom
    // triangles. Better a loud deterministic abort than a wrong count.
    rt::fatal_misuse("TriangleCounter::start on a graph that streamed deletions",
                     __FILE__, __LINE__);
  }
  sim::Chip& chip = g.chip();
  for (std::uint64_t vid = 0; vid < g.num_vertices(); ++vid) {
    for (const auto addr : g.fragments_of(vid)) {
      chip.as<VertexFragment>(addr)->app[kCountWord] = 0;
    }
    chip.inject_local(rt::make_action(h_kick_, g.root_of(vid)));
  }
}

std::uint64_t TriangleCounter::closed_wedges(const graph::StreamingGraph& g) const {
  std::uint64_t total = 0;
  for (std::uint64_t vid = 0; vid < g.num_vertices(); ++vid) {
    total += g.app_word_chain_sum(vid, kCountWord);
  }
  return total;
}

// tri-kick(frag): probe local pairs, cross local edges against the rest of
// the chain, and continue the kick down the chain.
void TriangleCounter::handle_kick(rt::Context& ctx, const rt::Action& a) {
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) return;
  const auto n = frag->edges.size();
  ctx.charge(static_cast<std::uint32_t>(n * (n > 0 ? n - 1 : 0) / 2 + 1));

  // Pairs inside this fragment: ask v_i whether it stores an edge to w_j.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      ctx.propagate(rt::make_action(h_probe_, frag->edges[i].dst,
                                    frag->edges[j].dst.pack()));
    }
  }
  // Pairs straddling this fragment and everything below it in the chain:
  // one cross wave per local edge.
  for (const graph::EdgeRecord& e : frag->edges) {
    forward_down_chain(ctx, *frag, rt::make_action(h_cross_, rt::kNullAddress,
                                                   e.dst.pack()));
  }
  forward_down_chain(ctx, *frag, rt::make_action(h_kick_, rt::kNullAddress));
}

// tri-cross(frag, v): pair v against this fragment's local edges, then keep
// walking down.
void TriangleCounter::handle_cross(rt::Context& ctx, const rt::Action& a) {
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) return;
  const rt::GlobalAddress v = rt::GlobalAddress::unpack(a.args[0]);
  ctx.charge(static_cast<std::uint32_t>(frag->edges.size()) + 1);
  for (const graph::EdgeRecord& e : frag->edges) {
    ctx.propagate(rt::make_action(h_probe_, v, e.dst.pack()));
  }
  forward_down_chain(ctx, *frag, rt::make_action(h_cross_, rt::kNullAddress,
                                                 a.args[0]));
}

// tri-probe(frag of v, w): does v store an edge to w? Found -> count here;
// miss -> try the next fragment in v's chain; end of chain -> not a triangle.
void TriangleCounter::handle_probe(rt::Context& ctx, const rt::Action& a) {
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) return;
  const rt::GlobalAddress w = rt::GlobalAddress::unpack(a.args[0]);
  ctx.charge(static_cast<std::uint32_t>(frag->edges.size()) + 1);
  for (const graph::EdgeRecord& e : frag->edges) {
    if (e.dst == w) {
      ++frag->app[kCountWord];
      return;
    }
  }
  forward_down_chain(ctx, *frag, rt::make_action(h_probe_, rt::kNullAddress,
                                                 a.args[0]));
}

// ---------------------------------------------------------------------------
// JaccardQuery
// ---------------------------------------------------------------------------

JaccardQuery::JaccardQuery(graph::GraphProtocol& protocol) : proto_(protocol) {
  h_kick_ = proto_.chip().handlers().register_handler(
      "app.jacc-kick",
      [this](rt::Context& ctx, const rt::Action& a) { handle_kick(ctx, a); });
  h_probe_ = proto_.chip().handlers().register_handler(
      "app.jacc-probe",
      [this](rt::Context& ctx, const rt::Action& a) { handle_probe(ctx, a); });
  h_hit_ = proto_.chip().handlers().register_handler(
      "app.jacc-hit",
      [this](rt::Context& ctx, const rt::Action& a) { handle_hit(ctx, a); });
}

double JaccardQuery::query(graph::StreamingGraph& g, std::uint64_t u,
                           std::uint64_t v) const {
  if (g.rhizome_count() != 1) {
    throw std::invalid_argument("JaccardQuery requires rhizomes == 1");
  }
  sim::Chip& chip = g.chip();
  chip.as<VertexFragment>(g.root_of(u))->app[kCommonWord] = 0;
  chip.inject_local(rt::make_action(h_kick_, g.root_of(u), g.root_of(v).pack(),
                                    g.root_of(u).pack()));
  g.run();
  const auto common = static_cast<double>(common_neighbors(g, u));
  const auto du = static_cast<double>(g.stored_degree(u));
  const auto dv = static_cast<double>(g.stored_degree(v));
  const double uni = du + dv - common;
  return uni <= 0.0 ? 0.0 : common / uni;
}

std::uint64_t JaccardQuery::common_neighbors(const graph::StreamingGraph& g,
                                             std::uint64_t u) const {
  return g.app_word(u, kCommonWord);
}

// jacc-kick(frag of u, v, u_root): probe each local neighbour against v.
void JaccardQuery::handle_kick(rt::Context& ctx, const rt::Action& a) {
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) return;
  const rt::GlobalAddress v = rt::GlobalAddress::unpack(a.args[0]);
  ctx.charge(static_cast<std::uint32_t>(frag->edges.size()) + 1);
  for (const graph::EdgeRecord& e : frag->edges) {
    ctx.propagate(rt::make_action(h_probe_, v, e.dst.pack(), a.args[1]));
  }
  forward_down_chain(ctx, *frag,
                     rt::make_action(h_kick_, rt::kNullAddress, a.args[0], a.args[1]));
}

// jacc-probe(frag of v, w, u_root): hit -> report to u's root; miss -> walk.
void JaccardQuery::handle_probe(rt::Context& ctx, const rt::Action& a) {
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) return;
  const rt::GlobalAddress w = rt::GlobalAddress::unpack(a.args[0]);
  ctx.charge(static_cast<std::uint32_t>(frag->edges.size()) + 1);
  for (const graph::EdgeRecord& e : frag->edges) {
    if (e.dst == w) {
      ctx.propagate(rt::make_action(h_hit_, rt::GlobalAddress::unpack(a.args[1])));
      return;
    }
  }
  forward_down_chain(ctx, *frag,
                     rt::make_action(h_probe_, rt::kNullAddress, a.args[0], a.args[1]));
}

void JaccardQuery::handle_hit(rt::Context& ctx, const rt::Action& a) {
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) return;
  ctx.charge(1);
  ++frag->app[kCommonWord];
}

}  // namespace ccastream::apps
