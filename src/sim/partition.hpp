// Mesh partitioning for the parallel chip engine.
//
// The engine assigns each worker one *partition* of the mesh — an
// axis-aligned rectangle of cells. Three shapes are supported:
//
//   * rows  — horizontal stripes of contiguous rows (the default; pairs
//             well with north/south IO, whose YX injection legs run down
//             their own columns);
//   * cols  — vertical stripes of contiguous columns (pairs with west/east
//             IO, where row stripes would put every IO cell into just two
//             partitions);
//   * tiles — a gx × gy grid of rectangles (general 2-D decomposition;
//             the grid is auto-factored from the worker count unless
//             pinned with `tiles:GXxGY`).
//
// Any shape may additionally enable *load-adaptive rebalancing*: the chip
// re-splits the partition boundaries between increments from its cumulative
// per-cell load histogram (quantile split per axis), so hot regions — e.g.
// border rows under north/south IO skew — spread across workers.
//
// Partitioning is a performance knob only: the engine's snapshot protocol
// makes every run cycle-for-cycle identical to serial for every shape,
// worker count, and rebalance schedule. It composes freely with the other
// backend knobs — thread count (CCASTREAM_THREADS) and cycle engine
// (CCASTREAM_ENGINE) — every combination is pinned against the serial
// scan oracle; see docs/ARCHITECTURE.md for the execution model and
// docs/TUNING.md for when to pick which shape.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ccastream::sim {

enum class PartitionShape : std::uint8_t { kRows, kCols, kTiles };

[[nodiscard]] std::string_view to_string(PartitionShape shape) noexcept;

/// Requested partitioning: shape, optional explicit tile grid, and the
/// rebalancing flag. Parses from / prints to the spec grammar shared by
/// `CCASTREAM_PARTITION` and the CLI `--partition` flag:
///
///   rows | cols | tiles[:GXxGY]  [+rebalance]
///
/// e.g. "rows", "cols+rebalance", "tiles", "tiles:4x2+rebalance".
struct PartitionSpec {
  PartitionShape shape = PartitionShape::kRows;
  bool rebalance = false;
  /// Explicit tile grid (columns × rows of tiles). 0 = auto-factor the
  /// grid from the worker count. Only meaningful for kTiles; an explicit
  /// grid pins the partition (and therefore worker) count.
  std::uint32_t tiles_x = 0, tiles_y = 0;

  [[nodiscard]] static std::optional<PartitionSpec> parse(std::string_view text);
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const PartitionSpec&, const PartitionSpec&) = default;
};

/// Resolves a chip's partition request: an explicit config wins, otherwise
/// the CCASTREAM_PARTITION environment variable (ignored when unparsable),
/// otherwise the default row stripes. Same resolution order as every
/// backend knob (engine, threads): config > env > default.
[[nodiscard]] PartitionSpec resolve_partition(
    const std::optional<PartitionSpec>& requested);

/// One partition: a half-open cell rectangle [x0,x1) × [y0,y1).
struct PartRect {
  std::uint32_t x0 = 0, x1 = 0, y0 = 0, y1 = 0;

  [[nodiscard]] std::uint32_t width() const noexcept { return x1 - x0; }
  [[nodiscard]] std::uint32_t height() const noexcept { return y1 - y0; }
  [[nodiscard]] bool contains(std::uint32_t x, std::uint32_t y) const noexcept {
    return x >= x0 && x < x1 && y >= y0 && y < y1;
  }

  /// A half-open cell-index span [begin, end).
  struct CellSpan {
    std::uint32_t begin = 0, end = 0;
  };
  /// One row of the rectangle as a cell-index span on a `width`-column
  /// mesh: [y*width + x0, y*width + x1).
  [[nodiscard]] CellSpan row_span(std::uint32_t y,
                                  std::uint32_t width) const noexcept {
    return {y * width + x0, y * width + x1};
  }
  /// Calls `f(CellSpan)` over the rectangle on a `width`-column mesh, in
  /// ascending cell index — the order every engine phase relies on. A
  /// rectangle is contiguous in cell-index space row by row, so that is
  /// one span per row; a full-width rectangle is contiguous outright and
  /// comes as a single span. Spans are the unit the active engine's
  /// bitmap sweeps consume (see CellSoA::for_each_active).
  template <typename F>
  void for_each_span(std::uint32_t width, F&& f) const {
    if (x0 == 0 && x1 == width) {
      f(CellSpan{y0 * width, y1 * width});
      return;
    }
    for (std::uint32_t y = y0; y < y1; ++y) f(row_span(y, width));
  }

  friend bool operator==(const PartRect&, const PartRect&) = default;
};

/// A concrete decomposition of a width × height mesh into disjoint
/// rectangles that cover every cell exactly once. All three shapes are a
/// gx × gy grid of rectangles (rows: gx = 1; cols: gy = 1); partition ids
/// are row-major over the grid, and the per-axis boundaries are the only
/// degrees of freedom — which is what `rebalanced` moves.
class PartitionLayout {
 public:
  /// Single partition covering a 1x1 mesh (a usable placeholder).
  PartitionLayout() : rects_{{0, 1, 0, 1}}, owner_{0} {}

  /// Builds the uniform layout for `spec` with (up to) `target_parts`
  /// partitions. The part count is clamped by the shape's capacity (rows:
  /// height, cols: width, tiles: width × height); an explicit tile grid
  /// overrides `target_parts`. Auto-factored tile grids pick the most
  /// nearly square gx × gy = parts that fits the mesh, degrading the part
  /// count only when no factorisation fits.
  [[nodiscard]] static PartitionLayout build(const PartitionSpec& spec,
                                             std::uint32_t width,
                                             std::uint32_t height,
                                             std::uint32_t target_parts);

  /// The load-adaptive re-split: keeps the shape and grid dimensions but
  /// moves the per-axis boundaries to quantile-balance the cumulative
  /// per-cell load histogram (row sums split the y axis, column sums the x
  /// axis; tiles balance both axes independently). Every band keeps at
  /// least one row/column. A zero histogram yields the uniform layout.
  /// `cell_load` is indexed `y * width + x` and must cover the mesh.
  ///
  /// `min_gain_pct` adds hysteresis: a candidate split replaces an axis's
  /// current boundaries only when it shrinks that axis's hottest band load
  /// by at least that many percent, so marginal quantile wobble — the
  /// signature of an oscillating workload — no longer ping-pongs the
  /// boundaries (and thereby the IO-cell and worker assignments) every
  /// increment. 0 keeps the historic always-adopt behaviour.
  [[nodiscard]] PartitionLayout rebalanced(
      const std::vector<std::uint64_t>& cell_load,
      std::uint32_t min_gain_pct = 0) const;

  [[nodiscard]] std::uint32_t parts() const noexcept {
    return static_cast<std::uint32_t>(rects_.size());
  }
  [[nodiscard]] PartitionShape shape() const noexcept { return shape_; }
  [[nodiscard]] std::uint32_t mesh_width() const noexcept { return width_; }
  [[nodiscard]] std::uint32_t mesh_height() const noexcept { return height_; }
  [[nodiscard]] std::uint32_t grid_x() const noexcept { return grid_x_; }
  [[nodiscard]] std::uint32_t grid_y() const noexcept { return grid_y_; }
  [[nodiscard]] const PartRect& rect(std::uint32_t part) const {
    return rects_[part];
  }
  [[nodiscard]] const std::vector<PartRect>& rects() const noexcept {
    return rects_;
  }
  /// Partition id owning cell `y * width + x`. O(1) table lookup — this is
  /// on the router hot path (every hop consults the owner of its target).
  [[nodiscard]] std::uint32_t owner(std::uint32_t cell) const {
    return owner_[cell];
  }

  /// Structural self-check: every mesh cell lies in exactly one rectangle,
  /// that rectangle is the one the owner table names, and no rectangle is
  /// degenerate. O(mesh); used by the full-level checked build
  /// (CCASTREAM_CHECK=full — see runtime/check.hpp) after every layout
  /// change and cycle, and by the partition property tests.
  [[nodiscard]] bool exact_cover() const;

  friend bool operator==(const PartitionLayout& a, const PartitionLayout& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.rects_ == b.rects_;
  }

 private:
  static PartitionLayout from_boundaries(PartitionShape shape,
                                         std::uint32_t width, std::uint32_t height,
                                         const std::vector<std::uint32_t>& xb,
                                         const std::vector<std::uint32_t>& yb);
  /// The per-axis boundaries encoded in rects_ (grid_x_+1 / grid_y_+1
  /// entries) — what `rebalanced` compares against to skip the rebuild
  /// when the quantile split did not move.
  [[nodiscard]] std::vector<std::uint32_t> x_boundaries() const;
  [[nodiscard]] std::vector<std::uint32_t> y_boundaries() const;

  PartitionShape shape_ = PartitionShape::kRows;
  std::uint32_t width_ = 1, height_ = 1;
  std::uint32_t grid_x_ = 1, grid_y_ = 1;
  std::vector<PartRect> rects_;     ///< Row-major over the grid.
  std::vector<std::uint32_t> owner_;  ///< Cell index -> partition id.
};

/// Splits `bins` into `parts` contiguous non-empty ranges with near-equal
/// cumulative load: interior boundary s lands on the smallest index whose
/// prefix sum reaches s/parts of the total, clamped so every range keeps at
/// least one bin. Returns the parts+1 boundaries (first 0, last bins.size()).
/// A zero total degrades to the uniform split. Exposed for the property
/// tests; requires 1 <= parts <= bins.size().
[[nodiscard]] std::vector<std::uint32_t> balanced_boundaries(
    const std::vector<std::uint64_t>& bins, std::uint32_t parts);

}  // namespace ccastream::sim
