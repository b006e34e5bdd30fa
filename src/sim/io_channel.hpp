// IO Channels and IO Cells (paper Figure 2 & §4 "Graph Construction").
//
// Edges stream onto the chip through IO channels sitting on the chip
// borders. Each channel has one IO cell per border compute cell; the host
// distributes pending actions round-robin among all IO cells, and every
// cycle each IO cell pushes at most one action into its attached border
// cell's router ("every cycle, each IO Cell reads an edge, creates the
// corresponding action ... and sends it to its connected CC").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/action.hpp"
#include "runtime/geometry.hpp"

namespace ccastream::sim {

/// Which chip borders carry an IO channel.
enum IoSide : std::uint8_t {
  kIoWest = 1 << 0,
  kIoEast = 1 << 1,
  kIoNorth = 1 << 2,
  kIoSouth = 1 << 3,
};

/// The actions waiting in one IO cell, oldest first. The host appends
/// while the chip is stopped; during IO the partition that owns the
/// attached cell takes from the front. Taking only moves a cursor, so the
/// storage is allocated and freed on the host's thread alone, and holds
/// the largest batch queued so far. A block freed on a partition thread
/// would go back to the host's heap at a moment that varies from run to
/// run, and the heap's layout and the process's peak RSS would vary too.
class IoQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size() - head_; }
  [[nodiscard]] const rt::Action& front() const noexcept { return items_[head_]; }

  /// Partition side; the caller checked !empty(). An emptied queue starts
  /// over at the front of its storage.
  void pop_front() noexcept {
    if (++head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    }
  }

  /// Host side. Drops the taken prefix once it is at least as long as the
  /// rest, so the storage stays within twice the waiting actions.
  void push_back(const rt::Action& a) {
    if (head_ != 0 && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    items_.push_back(a);
  }

 private:
  std::vector<rt::Action> items_;
  std::size_t head_ = 0;  ///< items_[head_..] are waiting.
};

/// One IO cell: a queue of pending actions feeding one border compute cell.
struct IoCell {
  std::uint32_t attached_cc = 0;
  IoQueue pending;
};

/// The set of IO cells on the configured chip borders.
class IoSystem {
 public:
  IoSystem(const rt::MeshGeometry& mesh, std::uint8_t sides);

  /// Queues an action for injection, distributing round-robin across cells.
  void enqueue(const rt::Action& action);

  /// Queues an action on the IO cell nearest to `preferred_cc`'s column/row
  /// (used by tests exercising specific injection points).
  void enqueue_at(std::size_t io_cell, const rt::Action& action);

  [[nodiscard]] std::size_t cell_count() const noexcept { return cells_.size(); }
  [[nodiscard]] IoCell& cell(std::size_t i) { return cells_[i]; }
  [[nodiscard]] const IoCell& cell(std::size_t i) const { return cells_[i]; }

  /// Total actions still waiting in IO cells.
  [[nodiscard]] std::size_t pending() const noexcept;
  [[nodiscard]] bool drained() const noexcept { return pending() == 0; }

 private:
  std::vector<IoCell> cells_;
  std::size_t next_ = 0;
};

}  // namespace ccastream::sim
