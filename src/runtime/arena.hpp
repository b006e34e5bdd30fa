// Arena storage of the runtime: the per-compute-cell scratchpad object
// arena, and the chip-wide slab arena backing the struct-of-arrays cell
// state.
//
// Each AM-CCA compute cell owns a fixed-capacity scratchpad memory. The
// runtime models it as an object arena: vertex fragments (and any other
// runtime objects) are placed into slots, and a GlobalAddress is
// (cc, slot). Capacity is accounted in *logical bytes* — the footprint the
// object would occupy in the real scratchpad — so allocation failure
// behaviour (arena exhaustion, allocation forwarding) can be exercised.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "runtime/check.hpp"
#include "runtime/types.hpp"

namespace ccastream::rt {

/// Chip-lifetime bump allocator for the struct-of-arrays cell state: one
/// zero-initialised byte slab carved into typed, cache-line-aligned
/// parallel arrays (hot words, lane head/tail pairs, snapshot latches —
/// see sim/cell_soa.hpp). Two properties matter:
///
///   * the backing store comes from calloc, so all-zero is the initial
///     state of every span. A slab above glibc's mmap threshold gets fresh
///     zero pages, paged in on first touch; but the threshold rises after
///     the first free of a large mapped block, and from then on a slab of
///     up to 32 MiB comes from recycled heap that calloc memsets. Untouched
///     spans are therefore not guaranteed to cost no resident memory;
///   * every span is allocated exactly once, before the first cycle, and
///     never moves — so raw pointers into the slab are stable for the
///     chip's lifetime (the property the lane views rely on).
///
/// All spans must be reserved before the first allocate() (reserve() sums
/// span_bytes() for the planned layout); exceeding the reservation is a
/// fatal misuse, not a growth path — growth would invalidate every
/// outstanding pointer.
class SlabArena {
 public:
  /// Cache-line alignment of every span: no allocated array ever shares a
  /// line with its neighbour, so adjacent spans never false-share.
  static constexpr std::size_t kSpanAlign = 64;

  SlabArena() = default;

  /// Bytes allocate<T>(count) will consume: the array footprint rounded up
  /// to whole cache lines. Callers sum these to size reserve().
  template <typename T>
  [[nodiscard]] static constexpr std::size_t span_bytes(
      std::size_t count) noexcept {
    static_assert(alignof(T) <= kSpanAlign);
    return (count * sizeof(T) + kSpanAlign - 1) / kSpanAlign * kSpanAlign;
  }

  /// (Re)establishes the slab at `bytes` capacity, discarding any previous
  /// contents; every byte reads zero.
  void reserve(std::size_t bytes) {
    buf_.reset(static_cast<std::byte*>(std::calloc(bytes, 1)));
    if (bytes != 0 && buf_ == nullptr) {
      fatal_misuse("SlabArena::reserve allocation failed", __FILE__, __LINE__);
    }
    capacity_ = bytes;
    used_ = 0;
  }

  /// Carves the next `count`-element array of T out of the slab,
  /// zero-filled and kSpanAlign-aligned. T must be trivially copyable: the
  /// slab never runs constructors or destructors — the zero fill IS the
  /// initial state (which is why every SoA field is designed so that
  /// all-zero means "idle").
  template <typename T>
  [[nodiscard]] T* allocate(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t bytes = span_bytes<T>(count);
    if (used_ + bytes > capacity_) {
      fatal_misuse("SlabArena::allocate beyond the reservation", __FILE__,
                   __LINE__);
    }
    T* span = reinterpret_cast<T*>(buf_.get() + used_);
    used_ += bytes;
    return span;
  }

  [[nodiscard]] std::size_t bytes_used() const noexcept { return used_; }
  [[nodiscard]] std::size_t bytes_capacity() const noexcept {
    return capacity_;
  }

 private:
  struct FreeDeleter {
    void operator()(std::byte* p) const noexcept { std::free(p); }
  };
  std::unique_ptr<std::byte, FreeDeleter> buf_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
};

/// Base class of every object that can live in a compute cell's scratchpad.
class ArenaObject {
 public:
  virtual ~ArenaObject() = default;

  /// Scratchpad footprint in bytes, charged against the cell's capacity at
  /// allocation time (objects reserve their full footprint up front).
  [[nodiscard]] virtual std::size_t logical_bytes() const noexcept = 0;
};

/// Object arena of one compute cell.
///
/// Slots are stable for the lifetime of the arena (objects are never moved),
/// so raw pointers returned by get() remain valid until clear().
class ObjectArena {
 public:
  explicit ObjectArena(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Places an object; returns its slot, or nullopt if the scratchpad would
  /// overflow. Ownership is transferred to the arena.
  std::optional<std::uint32_t> insert(std::unique_ptr<ArenaObject> obj);

  /// Returns the object in `slot`, or nullptr for an out-of-range slot.
  [[nodiscard]] ArenaObject* get(std::uint32_t slot) noexcept;
  [[nodiscard]] const ArenaObject* get(std::uint32_t slot) const noexcept;

  [[nodiscard]] std::size_t object_count() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t bytes_used() const noexcept { return used_; }
  [[nodiscard]] std::size_t bytes_capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool would_fit(std::size_t bytes) const noexcept {
    return used_ + bytes <= capacity_;
  }

  /// Destroys all objects and resets the usage accounting.
  void clear();

 private:
  /// unique_ptr indirection keeps pointee addresses stable across slot
  /// growth (the get() contract above). A vector of them — unlike the
  /// deque it replaced — costs nothing while empty, which is what an idle
  /// cell's arena is; at a million cells the empty-deque block allocations
  /// alone were ~0.5 GiB.
  std::vector<std::unique_ptr<ArenaObject>> slots_;
  std::size_t capacity_;
  std::size_t used_ = 0;
};

}  // namespace ccastream::rt
