#include "sim/partition.hpp"

#include <algorithm>
#include <cassert>

namespace ccastream::sim {

PartitionLayout::PartitionLayout(std::uint32_t width, std::uint32_t height,
                                 std::uint32_t target_parts)
    : width_(width), row_owner_(height) {
  assert(width > 0 && height > 0);
  const std::uint32_t parts = std::clamp<std::uint32_t>(target_parts, 1, height);
  const auto rows = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, height / (8ull * parts)));
  blocks_.resize(parts);
  for (std::uint32_t b = 0, first = 0; first < height; ++b) {
    const std::uint32_t end = first + std::min(rows, height - first);
    std::fill(row_owner_.begin() + first, row_owner_.begin() + end, b % parts);
    blocks_[b % parts].push_back({first * width, end * width});
    first = end;
  }
}

}  // namespace ccastream::sim
