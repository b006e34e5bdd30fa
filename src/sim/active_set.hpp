// The activity bitmap of one mesh partition: one bit per cell of its span
// — from the partition's first owned cell to the end of its last block —
// set while the cell has work, one summary bit per 64-cell word, and the
// count of set bits. The rows of other partitions' blocks inside the span
// are never set.
//
// Each partition owns its set outright (Chip::PartitionState::active).
// Only its worker writes it during a cycle, and the host between cycles,
// so every access is a plain load or store and the summary is exact at
// every instant: a word's summary bit is set iff the word is non-zero.
// A sweep skips a clear summary bit's 64 cells unread, so it costs
// O(live words + span / 4096).
//
// The words keep the chip's global alignment: word w holds cells
// 64w..64w+63. A word that holds rows of several partitions is kept by
// each of them, each copy holding only its own cells. Chip::cell_visits()
// rests on that alignment: a sweep visits a bit set while it runs only
// when the bit's word comes later in the sweep, so words rebased at the
// span's first cell would move the visit count of every partition whose
// blocks split a word.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/partition.hpp"

namespace ccastream::sim {

class ActiveSet {
 public:
  /// An empty set over no cells.
  ActiveSet() = default;
  /// An empty set over the cells of `span`.
  explicit ActiveSet(CellSpan span)
      : span_(span),
        first_word_(span.begin >> 6),
        words_(span.begin < span.end ? ((span.end - 1) >> 6) - first_word_ + 1
                                     : 0),
        summary_((words_.size() + 63) / 64) {}

  /// Set bits: the partition's live cells.
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  [[nodiscard]] bool contains(std::uint32_t cc) const noexcept {
    return (words_[word_index(cc)] >> (cc & 63)) & 1u;
  }
  /// Sets cell cc's bit and its word's summary bit; a no-op if set.
  void insert(std::uint32_t cc) noexcept {
    const std::uint32_t w = word_index(cc);
    const std::uint64_t bit = 1ull << (cc & 63);
    if ((words_[w] & bit) != 0) return;
    words_[w] |= bit;
    summary_[w >> 6] |= 1ull << (w & 63);
    ++size_;
  }
  /// Clears cell cc's bit, and its word's summary bit when that empties
  /// the word; a no-op if clear.
  void erase(std::uint32_t cc) noexcept {
    const std::uint32_t w = word_index(cc);
    const std::uint64_t bit = 1ull << (cc & 63);
    if ((words_[w] & bit) == 0) return;
    words_[w] &= ~bit;
    if (words_[w] == 0) summary_[w >> 6] &= ~(1ull << (w & 63));
    --size_;
  }

  /// Calls `f(cell index)` for every set bit, in ascending order — the
  /// core of every stage of the active engine. Each word is loaded once,
  /// before any of its bits is visited, and the summary is re-read after
  /// each word. So a bit `f` sets in a later word is visited, and one it
  /// sets in the current word or an earlier one is not: the visits follow
  /// the sweeping partition's own program order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      std::uint64_t pending = summary_[s];
      while (pending != 0) {
        const int b = std::countr_zero(pending);
        const std::size_t w = s * 64 + static_cast<std::size_t>(b);
        const auto base = static_cast<std::uint32_t>((first_word_ + w) << 6);
        for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
          f(base | static_cast<std::uint32_t>(std::countr_zero(bits)));
        }
        pending = summary_[s] & (~0ull << b << 1);
      }
    }
  }

  /// Whether the summary marks cell cc's word as live.
  [[nodiscard]] bool summary_bit(std::uint32_t cc) const noexcept {
    const std::uint32_t w = word_index(cc);
    return (summary_[w >> 6] >> (w & 63)) & 1u;
  }

  /// The set's invariants, which the checked build's end-of-cycle audit
  /// asserts: a summary bit is set iff its word is non-zero, no bit lies
  /// outside the span, and size() is the popcount. O(span / 64). (That
  /// every bit is an owned cell's the chip's audit checks itself.)
  [[nodiscard]] bool exact() const noexcept {
    std::uint64_t bits = 0;
    for (std::size_t w = 0; w < summary_.size() * 64; ++w) {
      const std::uint64_t word = w < words_.size() ? words_[w] : 0;
      if ((word != 0) != (((summary_[w >> 6] >> (w & 63)) & 1u) != 0)) {
        return false;
      }
      bits += static_cast<std::uint64_t>(std::popcount(word));
    }
    if (!words_.empty()) {
      const std::uint64_t below = ~(~0ull << (span_.begin & 63));
      const std::uint64_t past = (span_.end & 63) != 0
                                     ? ~0ull << (span_.end & 63)
                                     : 0;
      if ((words_.front() & below) != 0 || (words_.back() & past) != 0) {
        return false;
      }
    }
    return bits == size_;
  }

  // --- Test backdoors -------------------------------------------------------
  // The checked-build death tests corrupt the set directly to prove the
  // full-level audit still has teeth (tests/check_test.cpp). Each takes
  // any cell whose word the set holds, so a test can also plant a bit
  // outside the span in an edge word.

  /// Forces cell cc's bit, leaving the summary and the count alone.
  void corrupt_active_flag(std::uint32_t cc, bool on) noexcept {
    std::uint64_t& word = words_[(cc >> 6) - first_word_];
    word = on ? word | 1ull << (cc & 63) : word & ~(1ull << (cc & 63));
  }
  /// Forces the summary bit of cell cc's word, leaving the word alone.
  void corrupt_summary_flag(std::uint32_t cc, bool on) noexcept {
    const std::uint32_t w = (cc >> 6) - first_word_;
    std::uint64_t& sword = summary_[w >> 6];
    sword = on ? sword | 1ull << (w & 63) : sword & ~(1ull << (w & 63));
  }

 private:
  /// Index into words_ of cell cc's word; cc must lie in the span.
  [[nodiscard]] std::uint32_t word_index(std::uint32_t cc) const noexcept {
    assert(cc >= span_.begin && cc < span_.end);
    return (cc >> 6) - first_word_;
  }

  CellSpan span_;
  std::uint32_t first_word_ = 0;
  std::uint64_t size_ = 0;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> summary_;
};

}  // namespace ccastream::sim
