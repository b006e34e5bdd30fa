// Mesh partitioning for the parallel chip engine.
//
// The engine assigns each worker one *partition* of the mesh: a stripe of
// contiguous rows. Cells are indexed row-major, so a stripe is one
// contiguous cell-index span — the unit every engine sweep consumes.
// North/south IO (the default) suits stripes: an injected message's YX
// first leg runs down its own column, so every stripe shares the load.
//
// A spec may additionally enable *load-adaptive rebalancing*: the chip
// re-splits the stripe boundaries between increments from its cumulative
// per-cell load histogram (a quantile split of the row sums), so hot
// regions — e.g. border rows under north/south IO skew — spread across
// workers.
//
// Partitioning is a performance knob only: the engine's snapshot protocol
// makes every run cycle-for-cycle identical to serial for every worker
// count and rebalance schedule. It composes freely with the other backend
// knobs — thread count (CCASTREAM_THREADS) and cycle engine
// (CCASTREAM_ENGINE) — every combination is pinned against the serial
// scan oracle; see docs/ARCHITECTURE.md for the execution model and
// docs/TUNING.md for when rebalancing pays.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ccastream::sim {

/// Requested partitioning: row stripes, optionally rebalanced. Parses
/// from / prints to the spec grammar shared by `CCASTREAM_PARTITION` and
/// the CLI `--partition` flag:
///
///   rows | rows+rebalance
struct PartitionSpec {
  bool rebalance = false;

  [[nodiscard]] static std::optional<PartitionSpec> parse(std::string_view text);
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const PartitionSpec&, const PartitionSpec&) = default;
};

/// Resolves a chip's partition request: an explicit config wins, otherwise
/// the CCASTREAM_PARTITION environment variable (ignored when unparsable),
/// otherwise plain row stripes. Same resolution order as every backend
/// knob (engine, threads): config > env > default.
[[nodiscard]] PartitionSpec resolve_partition(
    const std::optional<PartitionSpec>& requested);

/// A half-open cell-index span [begin, end).
struct CellSpan {
  std::uint32_t begin = 0, end = 0;

  friend bool operator==(const CellSpan&, const CellSpan&) = default;
};

/// A concrete decomposition of a width × height mesh into row stripes that
/// cover every cell exactly once. Partition p owns rows
/// [row_boundaries()[p], row_boundaries()[p + 1]); the interior boundaries
/// are the only degrees of freedom — which is what `rebalanced` moves.
class PartitionLayout {
 public:
  /// Single partition covering a 1x1 mesh (a usable placeholder).
  PartitionLayout() : rows_{0, 1} {}

  /// Builds the uniform layout with (up to) `target_parts` stripes: the
  /// part count is clamped to [1, height], since every stripe keeps at
  /// least one row.
  [[nodiscard]] static PartitionLayout build(std::uint32_t width,
                                             std::uint32_t height,
                                             std::uint32_t target_parts);

  /// The load-adaptive re-split: keeps the stripe count but moves the
  /// boundaries to quantile-balance the row sums of the cumulative
  /// per-cell load histogram. Every stripe keeps at least one row. A zero
  /// histogram yields the uniform layout. `cell_load` is indexed
  /// `y * width + x` and must cover the mesh.
  ///
  /// `min_gain_pct` adds hysteresis: a candidate split replaces the
  /// current boundaries only when it shrinks the hottest stripe's load by
  /// at least that many percent, so marginal quantile wobble — the
  /// signature of an oscillating workload — no longer ping-pongs the
  /// boundaries (and thereby the IO-cell and worker assignments) every
  /// increment. 0 keeps the historic always-adopt behaviour.
  [[nodiscard]] PartitionLayout rebalanced(
      const std::vector<std::uint64_t>& cell_load,
      std::uint32_t min_gain_pct = 0) const;

  [[nodiscard]] std::uint32_t parts() const noexcept {
    return static_cast<std::uint32_t>(rows_.size() - 1);
  }
  [[nodiscard]] std::uint32_t mesh_width() const noexcept { return width_; }
  [[nodiscard]] std::uint32_t mesh_height() const noexcept { return height_; }
  /// The parts()+1 stripe boundaries, in rows (first 0, last height).
  [[nodiscard]] const std::vector<std::uint32_t>& row_boundaries() const noexcept {
    return rows_;
  }
  /// The cells partition `part` owns, as one contiguous index span.
  [[nodiscard]] CellSpan span(std::uint32_t part) const {
    return {rows_[part] * width_, rows_[part + 1] * width_};
  }
  /// Partition id owning cell `y * width + x`: a binary search of the
  /// row boundaries. Host side only (injection, IO-cell assignment); the
  /// router never asks, since a hop leaves a stripe only for the stripe
  /// directly above or below it.
  [[nodiscard]] std::uint32_t owner(std::uint32_t cell) const;

  /// Structural self-check: the boundaries are strictly increasing from
  /// row 0 to the mesh height, so the stripes are non-empty and cover every
  /// row once. O(parts); used by the full-level checked build
  /// (CCASTREAM_CHECK=full — see runtime/check.hpp) after every layout
  /// change and cycle, and by the partition property tests.
  [[nodiscard]] bool exact_cover() const;

  friend bool operator==(const PartitionLayout&, const PartitionLayout&) = default;

 private:
  PartitionLayout(std::uint32_t width, std::uint32_t height,
                  std::vector<std::uint32_t> rows)
      : width_(width), height_(height), rows_(std::move(rows)) {}

  std::uint32_t width_ = 1, height_ = 1;
  std::vector<std::uint32_t> rows_;  ///< Stripe boundaries, in rows.
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
