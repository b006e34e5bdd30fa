// Mesh geometry shared by the simulator's routers and the runtime's
// allocation policies: 2-D coordinates on the chip, index <-> coordinate
// mapping, and Manhattan (minimal-path) hop distance.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdlib>

namespace ccastream::rt {

/// Coordinate of a compute cell on the chip mesh. x is the column
/// (horizontal), y the row (vertical); (0,0) is the north-west corner.
struct Coord {
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  friend constexpr bool operator==(Coord, Coord) = default;
};

/// Rectangular mesh of width*height compute cells, linearised row-major.
class MeshGeometry {
 public:
  constexpr MeshGeometry(std::uint32_t width, std::uint32_t height) noexcept
      : width_(width), height_(height) {}

  [[nodiscard]] constexpr std::uint32_t width() const noexcept { return width_; }
  [[nodiscard]] constexpr std::uint32_t height() const noexcept { return height_; }
  /// Cells in the mesh. A 32-bit count like every cell index, so it wraps
  /// at 2^32 cells; sim::Chip refuses such meshes at construction.
  [[nodiscard]] constexpr std::uint32_t cell_count() const noexcept {
    return width_ * height_;
  }

  [[nodiscard]] constexpr Coord coord_of(std::uint32_t cc) const noexcept {
    return Coord{cc % width_, cc / width_};
  }
  [[nodiscard]] constexpr std::uint32_t index_of(Coord c) const noexcept {
    return c.y * width_ + c.x;
  }
  [[nodiscard]] constexpr bool contains(Coord c) const noexcept {
    return c.x < width_ && c.y < height_;
  }

  /// Minimal-path (Manhattan) hop count between two cells.
  [[nodiscard]] constexpr std::uint32_t hops(std::uint32_t a, std::uint32_t b) const noexcept {
    const Coord ca = coord_of(a), cb = coord_of(b);
    const auto dx = ca.x > cb.x ? ca.x - cb.x : cb.x - ca.x;
    const auto dy = ca.y > cb.y ? ca.y - cb.y : cb.y - ca.y;
    return dx + dy;
  }

 private:
  std::uint32_t width_;
  std::uint32_t height_;
};

}  // namespace ccastream::rt
