#include "graph/protocol.hpp"

#include <algorithm>
#include <memory>

namespace ccastream::graph {

GraphProtocol::GraphProtocol(sim::Chip& chip, RpvoConfig cfg)
    : chip_(chip), cfg_(cfg) {
  blocks_.resize(std::max<std::uint32_t>(1, chip.threads()));
  // A fragment must hold at least one edge (capacity 0 would grow an
  // infinite ghost chain) and have at least one ghost slot.
  if (cfg_.edge_capacity == 0) cfg_.edge_capacity = 1;
  if (cfg_.ghost_fanout == 0) cfg_.ghost_fanout = 1;
  // Ghost fragments are created remotely by the allocate system action; the
  // factory produces a blank ghost (identity arrives via init-ghost).
  chip_.register_object_kind(kFragmentKind, [this]() {
    return VertexFragment::make(/*vertex_id=*/0, /*as_root=*/false, cfg_,
                                hooks_.ghost_init);
  });

  h_insert_ = chip_.handlers().register_handler(
      "graph.insert-edge",
      [this](rt::Context& ctx, const rt::Action& a) { handle_insert(ctx, a); });
  h_delete_ = chip_.handlers().register_handler(
      "graph.delete-edge",
      [this](rt::Context& ctx, const rt::Action& a) { handle_delete(ctx, a); });
  h_ghost_reply_ = chip_.handlers().register_handler(
      "graph.ghost-reply",
      [this](rt::Context& ctx, const rt::Action& a) { handle_ghost_reply(ctx, a); });
  h_init_ghost_ = chip_.handlers().register_handler(
      "graph.init-ghost",
      [this](rt::Context& ctx, const rt::Action& a) { handle_init_ghost(ctx, a); });
}

// insert-edge-action — paper Listing 6.
// args: w0 = dst root address, w1 = weight.
void GraphProtocol::handle_insert(rt::Context& ctx, const rt::Action& a) {
  ProtocolStats& ps = partition_stats(ctx);
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) {
    ++ps.bad_targets;
    return;
  }
  ++frag->inserts_seen;
  ctx.charge(1);  // has-room test + degree bookkeeping

  if (frag->has_room()) {
    // (insert-edge v e)
    const EdgeRecord edge{rt::GlobalAddress::unpack(a.args[0]),
                          static_cast<std::uint32_t>(a.args[1])};
    frag->edges.push_back(edge);
    ++ps.edges_inserted;
    ctx.charge(1);
    // Chain into the application (Listing 4: propagate bfs-action ...).
    if (hooks_.on_edge_inserted && !hooks_suppressed_) {
      hooks_.on_edge_inserted(ctx, *frag, edge);
    }
    return;
  }

  // Edge list full: the edge must flow to a ghost fragment.
  rt::FutureAddr& ghost = frag->ghosts[frag->next_ghost_slot()];
  const auto slot_tag = static_cast<rt::Word>(&ghost - frag->ghosts.data());

  if (ghost.is_empty()) {
    // Ghost not allocated yet: mark the future pending and fire the
    // allocate continuation at a cell chosen by the chip's policy
    // (Listing 6 lines 14-18). The edge itself waits on the future.
    ghost.set_pending();
    ctx.call_cc_allocate(kFragmentKind, a.target, h_ghost_reply_, slot_tag);
    ++ps.ghost_allocs_started;
    rt::Action deferred = a;
    deferred.target = rt::kNullAddress;  // patched with the value at fulfilment
    ghost.enqueue(deferred);
    ++ps.inserts_deferred;
    ctx.charge(2);
  } else if (ghost.is_pending()) {
    // Allocation already in flight: park this insert on the wait queue
    // (Listing 6 lines 21-26, Figure 4 state 2).
    rt::Action deferred = a;
    deferred.target = rt::kNullAddress;
    ghost.enqueue(deferred);
    ++ps.inserts_deferred;
    ctx.charge(1);
  } else {
    // Ghost exists: recursively propagate the insert down the chain
    // (Listing 6 lines 27-30).
    rt::Action fwd = a;
    fwd.target = ghost.value();
    if (fwd.target.is_null()) {
      // A previous allocation failed terminally; surface and drop.
      ++ps.bad_targets;
      return;
    }
    ctx.propagate(fwd);
    ++ps.inserts_forwarded;
    ctx.charge(1);
  }
}

// Return trigger of the allocate continuation — paper Figure 3 step 3 and
// Figure 4 states 3-4. args: w0 = new fragment address (null on failure),
// w1 = ghost slot index.
void GraphProtocol::handle_ghost_reply(rt::Context& ctx, const rt::Action& a) {
  ProtocolStats& ps = partition_stats(ctx);
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) {
    ++ps.bad_targets;
    return;
  }
  const rt::GlobalAddress ghost_addr = rt::GlobalAddress::unpack(a.args[0]);
  const auto slot = static_cast<std::size_t>(a.args[1]);
  if (slot >= frag->ghosts.size()) {
    ++ps.bad_targets;
    return;
  }
  ctx.charge(2);

  if (ghost_addr.is_null()) {
    // The allocator exhausted its forwarding budget: every scratchpad it
    // probed was full. Fulfil with null — parked inserts are dropped at
    // dispatch and counted as faults, and the failure is visible here.
    ++ps.ghost_alloc_failures;
  } else {
    ++ps.ghost_links_made;
    // Teach the new ghost its identity (vertex id + root address) so
    // chain-walking applications can orient themselves.
    ctx.propagate(rt::make_action(h_init_ghost_, ghost_addr,
                                  static_cast<rt::Word>(frag->vid),
                                  frag->root.pack()));
  }

  frag->ghosts[slot].fulfil(ghost_addr, ctx);
  if (!ghost_addr.is_null() && hooks_.on_ghost_linked && !hooks_suppressed_) {
    hooks_.on_ghost_linked(ctx, *frag, ghost_addr);
  }
}

// delete-edge-action — the expiry/sliding-window extension. args: w0 = dst
// root address, w1 reserved. Removes every matching record in this fragment
// and forwards a copy down EVERY ghost branch (delete-all-matches), parking
// on pending futures exactly like inserts so a racing allocation cannot
// lose the delete.
void GraphProtocol::handle_delete(rt::Context& ctx, const rt::Action& a) {
  ProtocolStats& ps = partition_stats(ctx);
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) {
    ++ps.bad_targets;
    return;
  }
  ++frag->deletes_seen;
  const rt::GlobalAddress dst = rt::GlobalAddress::unpack(a.args[0]);
  // Scan-and-erase is charged like the scan the real cell would do.
  ctx.charge(static_cast<std::uint32_t>(1 + frag->edges.size()));

  const std::size_t removed =
      frag->edges.erase_if([&](const EdgeRecord& e) { return e.dst == dst; });
  ps.edges_deleted += removed;

  const ChainForward fwd = forward_down_chain(ctx, *frag, a);
  ps.deletes_forwarded += fwd.propagated;
  ps.deletes_deferred += fwd.parked;
  if (fwd.propagated + fwd.parked == 0 && removed == 0) ++ps.deletes_unmatched;
}

// Sets a freshly allocated ghost's identity. args: w0 = vid, w1 = root addr.
void GraphProtocol::handle_init_ghost(rt::Context& ctx, const rt::Action& a) {
  auto* frag = ctx.as<VertexFragment>(a.target);
  if (frag == nullptr) {
    ++partition_stats(ctx).bad_targets;
    return;
  }
  frag->vid = a.args[0];
  frag->root = rt::GlobalAddress::unpack(a.args[1]);
  ctx.charge(1);
}

ProtocolStats GraphProtocol::stats() const noexcept {
  ProtocolStats total;
  for (const StatsBlock& sh : blocks_) {
    total.edges_inserted += sh.s.edges_inserted;
    total.inserts_forwarded += sh.s.inserts_forwarded;
    total.inserts_deferred += sh.s.inserts_deferred;
    total.edges_deleted += sh.s.edges_deleted;
    total.deletes_forwarded += sh.s.deletes_forwarded;
    total.deletes_deferred += sh.s.deletes_deferred;
    total.deletes_unmatched += sh.s.deletes_unmatched;
    total.ghost_allocs_started += sh.s.ghost_allocs_started;
    total.ghost_links_made += sh.s.ghost_links_made;
    total.ghost_alloc_failures += sh.s.ghost_alloc_failures;
    total.bad_targets += sh.s.bad_targets;
  }
  return total;
}

}  // namespace ccastream::graph
