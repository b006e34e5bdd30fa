#include "sim/partition.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <functional>

namespace ccastream::sim {

namespace {

/// Uniform boundaries: n bins into parts ranges via floor(n*s/parts), the
/// same arithmetic the original row-stripe engine used.
std::vector<std::uint32_t> uniform_boundaries(std::uint32_t n,
                                              std::uint32_t parts) {
  std::vector<std::uint32_t> b(parts + 1);
  for (std::uint32_t s = 0; s <= parts; ++s) {
    b[s] = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(n) * s) / parts);
  }
  return b;
}

/// The hottest band's cumulative load under `bounds` (a parts+1 boundary
/// vector over `bins`) — the quantity rebalancing exists to minimise.
std::uint64_t max_band_load(const std::vector<std::uint64_t>& bins,
                            const std::vector<std::uint32_t>& bounds) {
  std::uint64_t worst = 0;
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
    std::uint64_t band = 0;
    for (std::uint32_t i = bounds[s]; i < bounds[s + 1]; ++i) band += bins[i];
    worst = std::max(worst, band);
  }
  return worst;
}

/// Hysteresis gate: adopt `candidate` over `current` only when it shrinks
/// the hottest band by at least `min_gain_pct` percent. 128-bit products
/// keep the comparison exact for any run length.
bool improves_enough(const std::vector<std::uint64_t>& bins,
                     const std::vector<std::uint32_t>& current,
                     const std::vector<std::uint32_t>& candidate,
                     std::uint32_t min_gain_pct) {
  if (min_gain_pct == 0) return true;
  const std::uint64_t cur = max_band_load(bins, current);
  const std::uint64_t cand = max_band_load(bins, candidate);
  const std::uint32_t keep = 100 - std::min<std::uint32_t>(min_gain_pct, 100);
  return static_cast<unsigned __int128>(cand) * 100 <=
         static_cast<unsigned __int128>(cur) * keep;
}

}  // namespace

std::optional<PartitionSpec> PartitionSpec::parse(std::string_view text) {
  if (text == "rows") return PartitionSpec{};
  if (text == "rows+rebalance") return PartitionSpec{.rebalance = true};
  return std::nullopt;
}

std::string PartitionSpec::to_string() const {
  return rebalance ? "rows+rebalance" : "rows";
}

PartitionSpec resolve_partition(const std::optional<PartitionSpec>& requested) {
  if (requested) return *requested;
  if (const char* env = std::getenv("CCASTREAM_PARTITION")) {
    if (const auto spec = PartitionSpec::parse(env)) return *spec;
    // Warn (once) instead of failing: library code cannot abort the host
    // program, but a typo here would otherwise silently run everything on
    // plain row stripes — e.g. a CI partition-matrix job testing nothing.
    // atomic: chips may be constructed from concurrent host threads.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "ccastream: ignoring unparsable CCASTREAM_PARTITION '%s' "
                   "(using rows)\n",
                   env);
    }
  }
  return {};
}

std::vector<std::uint32_t> balanced_boundaries(
    const std::vector<std::uint64_t>& bins, std::uint32_t parts) {
  const auto n = static_cast<std::uint32_t>(bins.size());
  assert(parts >= 1 && parts <= n);
  std::uint64_t total = 0;
  for (const std::uint64_t v : bins) total += v;
  if (total == 0) return uniform_boundaries(n, parts);

  std::vector<std::uint32_t> b(parts + 1);
  b[0] = 0;
  b[parts] = n;
  std::uint64_t prefix = 0;  // sum of bins [0, cursor)
  std::uint32_t cursor = 0;
  for (std::uint32_t s = 1; s < parts; ++s) {
    // 128-bit product: total * s overflows u64 only for absurd loads, but
    // the rebalance schedule must stay exact for any run length.
    const std::uint64_t target = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(total) * s) / parts);
    const std::uint32_t lo = b[s - 1] + 1;     // keep this band non-empty
    const std::uint32_t hi = n - (parts - s);  // leave one bin per later band
    while (cursor < lo || (cursor < hi && prefix < target)) {
      prefix += bins[cursor];
      ++cursor;
    }
    b[s] = cursor;
  }
  return b;
}

PartitionLayout PartitionLayout::build(std::uint32_t width,
                                       std::uint32_t height,
                                       std::uint32_t target_parts) {
  assert(width > 0 && height > 0);
  const std::uint32_t parts = std::clamp<std::uint32_t>(target_parts, 1, height);
  return {width, height, uniform_boundaries(height, parts)};
}

std::uint32_t PartitionLayout::owner(std::uint32_t cell) const {
  // rows_[p + 1] is stripe p's end row: the owner is the first stripe
  // that ends past the cell's row.
  const auto ends = rows_.begin() + 1;
  return static_cast<std::uint32_t>(
      std::upper_bound(ends, rows_.end(), cell / width_) - ends);
}

bool PartitionLayout::exact_cover() const {
  return rows_.size() >= 2 && rows_.front() == 0 && rows_.back() == height_ &&
         std::adjacent_find(rows_.begin(), rows_.end(),
                            std::greater_equal<>()) == rows_.end();
}

PartitionLayout PartitionLayout::rebalanced(
    const std::vector<std::uint64_t>& cell_load,
    std::uint32_t min_gain_pct) const {
  assert(cell_load.size() == static_cast<std::size_t>(width_) * height_);
  std::vector<std::uint64_t> row_load(height_, 0);
  for (std::uint32_t y = 0; y < height_; ++y) {
    for (std::uint32_t x = 0; x < width_; ++x) {
      row_load[y] += cell_load[static_cast<std::size_t>(y) * width_ + x];
    }
  }
  std::vector<std::uint32_t> rows = balanced_boundaries(row_load, parts());
  // Keep this layout when the split did not move — the common steady-state
  // case for a chip rebalancing every increment — or moved by too little
  // to pay for itself.
  if (rows == rows_ || !improves_enough(row_load, rows_, rows, min_gain_pct)) {
    return *this;
  }
  return {width_, height_, std::move(rows)};
}

}  // namespace ccastream::sim
