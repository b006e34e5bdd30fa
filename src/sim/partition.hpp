// Mesh partitioning for the parallel chip engine.
//
// The engine assigns each worker one *partition* of the mesh, by one fixed
// rule: with P partitions (the thread count, clamped to the mesh height
// H), the rows are cut into blocks of k = max(1, ⌊H / 8P⌋) consecutive
// rows, and block b — rows [b·k, min((b+1)·k, H)) — belongs to partition
// b mod P. Cells are indexed row-major, so each block is one contiguous
// cell-index span, and a partition's sweeps walk its blocks in ascending
// order.
//
// Dealing each worker about eight blocks spread over the whole mesh puts a
// share of every hot band of rows — the border rows under north/south IO,
// a frontier's region — on every worker. It balanced the per-stage load
// better than contiguous stripes, and better than re-splitting them from
// the measured load, on every run docs/TUNING.md records.
//
// East/west hops stay in their row, so they stay in their partition. A
// north or south hop leaves it only across a block boundary, into the
// block above (owned by partition p−1 mod P) or the block below (p+1 mod
// P) — the only two partitions a partition ever sends to.
//
// The layout is fixed when the chip is built, and it never changes
// results: the engine's snapshot protocol makes every run cycle-for-cycle
// identical to serial for every worker count (see docs/ARCHITECTURE.md).
#pragma once

#include <cstdint>
#include <vector>

namespace ccastream::sim {

/// No member: the mesh partition is fixed (see above). Kept only because
/// benchmark/ccbench.cpp still assigns `ChipConfig::partition`.
struct PartitionSpec {};

/// A half-open cell-index span [begin, end).
struct CellSpan {
  std::uint32_t begin = 0, end = 0;

  friend bool operator==(const CellSpan&, const CellSpan&) = default;
};

/// The block-cyclic decomposition of a width × height mesh, computed once.
class PartitionLayout {
 public:
  /// Deals the rows in blocks over `target_parts` partitions, clamped to
  /// [1, height] so that every partition owns at least one block.
  PartitionLayout(std::uint32_t width, std::uint32_t height,
                  std::uint32_t target_parts);

  [[nodiscard]] std::uint32_t parts() const noexcept {
    return static_cast<std::uint32_t>(blocks_.size());
  }
  /// The blocks partition `part` owns, as cell-index spans in ascending
  /// order.
  [[nodiscard]] const std::vector<CellSpan>& blocks(std::uint32_t part) const {
    return blocks_[part];
  }
  /// Partition owning mesh row `row`.
  [[nodiscard]] std::uint32_t row_owner(std::uint32_t row) const {
    return row_owner_[row];
  }
  /// Partition owning cell `y * width + x`.
  [[nodiscard]] std::uint32_t owner(std::uint32_t cell) const {
    return row_owner_[cell / width_];
  }

 private:
  std::uint32_t width_ = 1;
  std::vector<std::uint32_t> row_owner_;       ///< Indexed by row.
  std::vector<std::vector<CellSpan>> blocks_;  ///< Indexed by partition.
};

}  // namespace ccastream::sim
