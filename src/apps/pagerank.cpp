#include "apps/pagerank.hpp"

#include <stdexcept>

#include "runtime/check.hpp"

namespace ccastream::apps {

using graph::VertexFragment;

namespace {
double as_double(rt::Word w) { return std::bit_cast<double>(w); }
rt::Word as_word(double d) { return std::bit_cast<rt::Word>(d); }
}  // namespace

PageRank::PageRank(graph::GraphProtocol& protocol, Params params)
    : proto_(protocol), params_(params) {
  h_delta_ = proto_.chip().handlers().register_handler(
      "app.pr-delta",
      [this](rt::Context& ctx, const rt::Action& a) { handle_delta(ctx, a); });
  h_push_ = proto_.chip().handlers().register_handler(
      "app.pr-push",
      [this](rt::Context& ctx, const rt::Action& a) { handle_push(ctx, a); });
}

void PageRank::seed(graph::StreamingGraph& g) const {
  if (g.rhizome_count() != 1) {
    throw std::invalid_argument(
        "PageRank requires rhizomes == 1: the degree normalisation relies on "
        "a single root observing every insert");
  }
  if (g.protocol().stats().edges_deleted > 0 ||
      g.protocol().stats().deletes_unmatched > 0) {
    // inserts_seen is the degree normalisation; deletions make it stale
    // and there is no repair story. Better a loud deterministic abort than
    // a silently wrong rank vector.
    rt::fatal_misuse("PageRank::seed on a graph that streamed deletions",
                     __FILE__, __LINE__);
  }
  sim::Chip& chip = g.chip();
  for (std::uint64_t vid = 0; vid < g.num_vertices(); ++vid) {
    for (const auto addr : g.fragments_of(vid)) {
      auto* frag = chip.as<VertexFragment>(addr);
      frag->app[kRankWord] = as_word(0.0);
      frag->app[kResidualWord] = as_word(0.0);
    }
    chip.inject_local(
        rt::make_action(h_delta_, g.root_of(vid), as_word(1.0 - params_.damping)));
  }
}

double PageRank::rank_of(const graph::StreamingGraph& g, std::uint64_t vid) const {
  return as_double(g.app_word(vid, kRankWord)) +
         as_double(g.app_word(vid, kResidualWord));
}

// pr-delta(v_root, delta): accumulate residual; absorb and push when it
// crosses the threshold.
void PageRank::handle_delta(rt::Context& ctx, const rt::Action& a) {
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) return;
  ctx.charge(2);

  double residual = as_double(frag->app[kResidualWord]) + as_double(a.args[0]);
  if (residual < params_.epsilon) {
    frag->app[kResidualWord] = as_word(residual);
    return;
  }
  // Absorb and push. The root has seen every insert for this vertex, so
  // inserts_seen is the logical out-degree used for normalisation.
  frag->app[kRankWord] = as_word(as_double(frag->app[kRankWord]) + residual);
  frag->app[kResidualWord] = as_word(0.0);
  const std::uint64_t degree = frag->inserts_seen;
  if (degree == 0) return;  // dangling vertex: mass is retained in rank

  const double per_edge = params_.damping * residual / static_cast<double>(degree);
  // Push along this fragment's edges and hand the wave down the chain.
  ctx.charge(static_cast<std::uint32_t>(frag->edges.size()));
  for (const graph::EdgeRecord& e : frag->edges) {
    ctx.propagate(rt::make_action(h_delta_, e.dst, as_word(per_edge)));
  }
  graph::forward_down_chain(
      ctx, *frag, rt::make_action(h_push_, rt::kNullAddress, as_word(per_edge)));
}

// pr-push(frag, per_edge): emit one delta per locally stored edge, then
// continue down the chain.
void PageRank::handle_push(rt::Context& ctx, const rt::Action& a) {
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) return;
  const rt::Word per_edge = a.args[0];
  ctx.charge(static_cast<std::uint32_t>(frag->edges.size()) + 1);
  for (const graph::EdgeRecord& e : frag->edges) {
    ctx.propagate(rt::make_action(h_delta_, e.dst, per_edge));
  }
  graph::forward_down_chain(
      ctx, *frag, rt::make_action(h_push_, rt::kNullAddress, per_edge));
}

}  // namespace ccastream::apps
