// Aggregate statistics of a chip run: event counters (which also feed the
// energy model), queue high-water marks, and latency accumulators.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "sim/energy.hpp"

namespace ccastream::sim {

struct ChipStats {
  std::uint64_t cycles = 0;

  // Action life cycle.
  std::uint64_t actions_created = 0;    ///< propagate + IO + host injections.
  std::uint64_t actions_executed = 0;
  std::uint64_t tasks_scheduled = 0;    ///< future-drain closures.

  // Compute.
  std::uint64_t instructions = 0;       ///< abstract instruction cycles.
  std::uint64_t stage_stalls = 0;       ///< cycles a cell stalled on a full outport.

  // Network.
  std::uint64_t messages_staged = 0;
  std::uint64_t hops = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t total_delivery_latency = 0;  ///< sum over delivered messages.

  // IO.
  std::uint64_t io_injections = 0;

  // Memory / LCO protocol.
  std::uint64_t allocations = 0;
  std::uint64_t alloc_forwards = 0;   ///< allocate bounced off a full arena.
  std::uint64_t alloc_failures = 0;   ///< allocate exhausted its hop budget.
  std::uint64_t faults = 0;           ///< unknown handler / bad address.

  /// Event view consumed by the energy model.
  [[nodiscard]] EnergyEvents energy_events() const noexcept {
    EnergyEvents e;
    e.instructions = instructions;
    e.hops = hops;
    e.stages = messages_staged;
    e.deliveries = deliveries;
    e.allocations = allocations;
    e.io_injections = io_injections;
    return e;
  }

  /// Mean end-to-end message latency in cycles (0 when nothing delivered).
  [[nodiscard]] double mean_delivery_latency() const noexcept {
    return deliveries == 0
               ? 0.0
               : static_cast<double>(total_delivery_latency) /
                     static_cast<double>(deliveries);
  }

  /// Mean hops per delivered message.
  [[nodiscard]] double mean_hops() const noexcept {
    return deliveries == 0
               ? 0.0
               : static_cast<double>(hops) / static_cast<double>(deliveries);
  }

  /// Difference between two snapshots (for per-increment reporting).
  [[nodiscard]] ChipStats delta_since(const ChipStats& earlier) const noexcept;

  /// Adds every counter of `other` into this one (how Chip::stats() sums
  /// the per-partition blocks; all fields are sums, so adding is commutative
  /// and the totals are invariant to the partition boundaries and count).
  void add(const ChipStats& other) noexcept;

  friend bool operator==(const ChipStats&, const ChipStats&) = default;
};

std::ostream& operator<<(std::ostream& os, const ChipStats& s);

}  // namespace ccastream::sim
