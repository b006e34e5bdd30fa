// The Recursively Parallel Vertex Object (RPVO) fragment — paper Figure 1.
//
// A logical vertex is stored as a chain (or small tree, with fan-out > 1) of
// fragments spread across compute cells. Each fragment holds a bounded
// in-place edge list and one future-of-pointer per ghost slot; the root
// fragment is the vertex's public address. Edge inserts that overflow a
// fragment flow through the ghost future to the next fragment, allocating
// it on demand via the asynchronous continuation protocol.
//
// A fragment is one host heap block, sized from the RpvoConfig when it is
// made: the header, then `edge_capacity` EdgeRecord slots, then
// `ghost_fanout` futures. The edge slots are in place, as on the hardware:
// an insert writes the next free slot, a delete compacts the survivors,
// and nothing grows or moves after VertexFragment::make.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>

#include "runtime/action.hpp"
#include "runtime/arena.hpp"
#include "runtime/context.hpp"
#include "runtime/future.hpp"
#include "runtime/types.hpp"

namespace ccastream::graph {

/// Number of application state words in each fragment (BFS level, SSSP
/// distance, component label, triangle counter, ... — one app at a time).
inline constexpr std::size_t kAppWords = 4;
using AppState = std::array<rt::Word, kAppWords>;

/// An edge stored in a fragment's edge list. The destination is the *root*
/// address of the destination vertex (paper Listing 3: edges carry the
/// vertex pointer, not the id, so diffusion needs no translation step).
struct EdgeRecord {
  rt::GlobalAddress dst;
  std::uint32_t weight = 1;
};

/// Shape parameters of the RPVO structure.
struct RpvoConfig {
  std::uint32_t edge_capacity = 16;  ///< Edge slots per fragment.
  std::uint32_t ghost_fanout = 1;    ///< Ghost futures per fragment (paper: >= 1).
};

/// A fragment's edge list: a fixed-capacity view of the in-place slots
/// that follow the fragment header. The first size() slots hold edges, in
/// insertion order; the rest are unused.
class EdgeSlots {
 public:
  EdgeSlots(EdgeRecord* slots, std::uint32_t capacity) noexcept
      : slots_(slots), capacity_(capacity) {}
  // A copy would alias the fragment's slots but not its size.
  EdgeSlots(const EdgeSlots&) = delete;
  EdgeSlots& operator=(const EdgeSlots&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }

  [[nodiscard]] EdgeRecord* begin() noexcept { return slots_; }
  [[nodiscard]] EdgeRecord* end() noexcept { return slots_ + size_; }
  [[nodiscard]] const EdgeRecord* begin() const noexcept { return slots_; }
  [[nodiscard]] const EdgeRecord* end() const noexcept { return slots_ + size_; }
  [[nodiscard]] const EdgeRecord& operator[](std::size_t i) const noexcept {
    return slots_[i];
  }

  /// Writes the next free slot; the caller checked !full() (has_room()).
  void push_back(const EdgeRecord& e) noexcept {
    std::construct_at(slots_ + size_, e);
    ++size_;
  }

  /// Replaces the contents with [first, last), which must fit.
  template <typename It>
  void assign(It first, It last) noexcept {
    size_ = 0;
    for (; first != last; ++first) push_back(*first);
  }

  /// Removes every edge matching `pred`, keeping the others in order;
  /// returns how many it removed.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    const std::size_t before = size_;
    size_ = static_cast<std::uint32_t>(std::remove_if(begin(), end(), pred) - begin());
    return before - size_;
  }

 private:
  EdgeRecord* slots_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_;
};

/// One fragment of a vertex (root or ghost).
class VertexFragment final : public rt::ArenaObject {
 public:
  /// The only way to build a fragment: one heap block holding the header,
  /// the config's edge slots and its ghost futures.
  [[nodiscard]] static std::unique_ptr<VertexFragment> make(
      std::uint64_t vertex_id, bool as_root, const RpvoConfig& cfg,
      const AppState& app_init);

  /// Scratchpad footprint of every fragment made from `cfg`: a 48-byte
  /// header (id, root pointer, flags, app words), 12 bytes per edge slot
  /// (packed address + weight) and the per-ghost future state. Charged in
  /// full at allocation, whether the slots are used or not.
  [[nodiscard]] static constexpr std::size_t footprint(const RpvoConfig& cfg) noexcept {
    constexpr std::size_t kHeaderBytes = 48;
    constexpr std::size_t kEdgeSlotBytes = 12;
    return kHeaderBytes + std::size_t{cfg.edge_capacity} * kEdgeSlotBytes +
           std::size_t{cfg.ghost_fanout} * rt::FutureAddr::logical_bytes();
  }

  ~VertexFragment() override;
  VertexFragment(const VertexFragment&) = delete;
  VertexFragment& operator=(const VertexFragment&) = delete;

  /// The block came from ::operator new at make()'s size, so it goes back
  /// unsized; a sized global delete would pass sizeof(VertexFragment).
  static void operator delete(void* p) noexcept { ::operator delete(p); }

  /// vertex-has-room of paper Listing 6.
  [[nodiscard]] bool has_room() const noexcept { return !edges.full(); }

  /// Ghost slot to overflow into next (round-robin across the fan-out).
  [[nodiscard]] std::uint32_t next_ghost_slot() noexcept {
    const std::uint32_t s = next_ghost_;
    next_ghost_ = (next_ghost_ + 1) % static_cast<std::uint32_t>(ghosts.size());
    return s;
  }

  /// footprint() of the config this fragment was made from.
  [[nodiscard]] std::size_t logical_bytes() const noexcept override {
    return footprint({static_cast<std::uint32_t>(edges.capacity()),
                      static_cast<std::uint32_t>(ghosts.size())});
  }

  std::uint64_t vid;                 ///< Vertex id (ghosts learn it via init).
  rt::GlobalAddress root;            ///< Root fragment address (self for roots).
  /// Next root in this vertex's rhizome ring (see StreamingGraph: vertices
  /// may have several root fragments to spread hub load, after the authors'
  /// companion "Rhizomes" design). Null when the vertex has a single root
  /// and on ghost fragments. Monotone apps forward improved state around
  /// the ring so every rhizome converges to the vertex's value.
  rt::GlobalAddress rhizome_next;
  bool is_root;
  EdgeSlots edges;                   ///< Local slice of the edge list.
  std::span<rt::FutureAddr> ghosts;  ///< In-block ghost futures.
  std::uint64_t inserts_seen = 0;    ///< Inserts routed through this fragment;
                                     ///< at the root this is the vertex's
                                     ///< cumulative insert count.
  std::uint64_t deletes_seen = 0;    ///< Delete ops routed through this
                                     ///< fragment, mirroring inserts_seen.
                                     ///< (inserts_seen - deletes_seen at the
                                     ///< root is NOT the live degree: one
                                     ///< delete op can remove several records
                                     ///< and an unmatched delete removes none.
                                     ///< Live degree is stored_degree().)
  AppState app;                      ///< Application state (level, dist, ...).

 private:
  VertexFragment(std::uint64_t vertex_id, bool as_root, const RpvoConfig& cfg,
                 const AppState& app_init, EdgeRecord* slots,
                 rt::FutureAddr* futures);

  std::uint32_t next_ghost_ = 0;
};

/// How many copies of an action forward_down_chain sent on.
struct ChainForward {
  std::uint32_t propagated = 0;  ///< Copies sent down ready ghost links.
  std::uint32_t parked = 0;      ///< Copies parked on pending futures.
};

/// Hands `a` on to the rest of `frag`'s logical vertex: a copy retargeted
/// at each ready ghost link is propagated, and a copy is parked on each
/// pending future (its target is patched at fulfilment, so a racing
/// allocation cannot lose it). Empty slots and failed (null) links get
/// nothing.
ChainForward forward_down_chain(rt::Context& ctx, VertexFragment& frag,
                                rt::Action a);

}  // namespace ccastream::graph
