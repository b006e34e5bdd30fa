// A message in flight on the mesh: one action plus its creation cycle.
// Actions fit a single 256-bit flit (paper §4), so a message occupies one
// link for exactly one cycle per hop. The one-hop-per-cycle rule needs no
// per-message state: ROUTE reads it off the phase-start lane snapshots.
#pragma once

#include <cstdint>

#include "runtime/action.hpp"

namespace ccastream::sim {

struct Message {
  rt::Action action;
  std::uint64_t birth_cycle = 0;  ///< Cycle the message was created.
};

// Message sizes every pooled QueueSlot — the one buffer of every lane and
// queue message, a Message plus its link in one 64-byte line (pinned in
// sim/fifo.hpp) — and every cross-partition PendingPush: keep it within
// one cache line, so a re-added field cannot silently regrow them.
static_assert(sizeof(Message) <= 64, "sim::Message must fit one cache line");

}  // namespace ccastream::sim
