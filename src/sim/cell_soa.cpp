#include "sim/cell_soa.hpp"

namespace ccastream::sim {

void CellSoA::init(std::uint32_t cell_count, std::uint32_t fifo_depth) {
  cells_ = cell_count;
  depth_ = fifo_depth;
  const std::size_t n = cell_count;
  const std::size_t lanes = n * kLanes;

  // One reservation for the whole layout. The lanes are head/tail slot
  // pairs: their messages live in the caller's slot pools, not here.
  std::size_t bytes = 0;
  bytes += rt::SlabArena::span_bytes<std::uint64_t>(n);               // hot_
  bytes += rt::SlabArena::span_bytes<std::uint32_t>(n);               // fifo_msgs_
  bytes += rt::SlabArena::span_bytes<std::uint32_t>(n * kMeshDirections);
  bytes += rt::SlabArena::span_bytes<std::uint8_t>(n);                // arb_next_
  bytes += rt::SlabArena::span_bytes<SlotList>(lanes);                // lane_lists_
  bytes += rt::SlabArena::span_bytes<std::uint32_t>(lanes);           // lane_size_
  slab_.reserve(bytes);

  hot_ = slab_.allocate<std::uint64_t>(n);
  fifo_msgs_ = slab_.allocate<std::uint32_t>(n);
  snapshot_ = slab_.allocate<std::uint32_t>(n * kMeshDirections);
  arb_next_ = slab_.allocate<std::uint8_t>(n);
  lane_lists_ = slab_.allocate<SlotList>(lanes);
  lane_size_ = slab_.allocate<std::uint32_t>(lanes);
  if (slab_.bytes_used() != slab_.bytes_capacity()) {
    rt::fatal_misuse("CellSoA::init slab layout mismatch", __FILE__, __LINE__);
  }
}

}  // namespace ccastream::sim
