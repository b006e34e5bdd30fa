// The checked-build verifier: CCA_CHECK(level, expr) — runtime-gated
// invariant checks that stay compiled into every build type (unlike
// assert) and cost one byte-compare when disabled.
//
// Three levels, resolved per chip (config > CCASTREAM_CHECK env > off):
//   * off   — every CCA_CHECK is a predictable untaken branch; the
//             production default (benchmarked: no measurable cost).
//   * cheap — O(1)-per-event checks at every mutation helper: the cached
//             fifo_msgs counter is cross-checked against the actual FIFO
//             occupancy after each sanctioned push/pop (see
//             ComputeCell's FIFO helpers).
//   * full  — everything in cheap, plus O(mesh) barrier-point sweeps at
//             the end of every cycle verifying the invariants no static
//             tool can see: active-set membership exactly equals
//             ComputeCell::has_work(), dense flag counts equal the flag
//             popcount, every cell's cached counter equals its real
//             occupancy, a partition's bitmap holds bits only for the
//             cells it owns, and all cross-partition outboxes are
//             drained (see
//             Chip::verify_cycle_invariants). CI runs the determinism and
//             engine-equivalence suites under CCASTREAM_CHECK=full.
//
// The macro reads the *current scope's* `cca_check_level()` — Chip and
// ComputeCell each provide one returning their resolved level — so two
// chips in one process can run at different levels (the resolution tests
// depend on that).
//
// A failed check is a fatal invariant violation, not an error condition:
// it prints the expression and location and aborts, same contract as the
// lint's runtime sibling (tools/lint/ccastream_lint.py covers what *can*
// be seen statically; CCA_CHECK covers what cannot).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace ccastream::rt {

/// Runtime verification level of the checked build. Enumerators are
/// lowercase so check sites read as the documented knob values:
/// CCA_CHECK(cheap, ...) / CCA_CHECK(full, ...).
enum class CheckLevel : std::uint8_t { off = 0, cheap = 1, full = 2 };

[[nodiscard]] std::string_view to_string(CheckLevel level) noexcept;

/// Parses "off", "cheap" or "full"; nullopt otherwise.
[[nodiscard]] std::optional<CheckLevel> parse_check_level(
    std::string_view text);

/// Resolves a chip's check level: an explicit config wins, otherwise the
/// CCASTREAM_CHECK environment variable (ignored with a one-shot warning
/// when unparsable), otherwise off.
[[nodiscard]] CheckLevel resolve_check_level(
    const std::optional<CheckLevel>& requested);

/// Reports a failed CCA_CHECK and aborts. Out of line so the check sites
/// stay a compare + cold call.
[[noreturn]] void check_failed(const char* expr, const char* file, int line);

/// Reports a structural-misuse fault (e.g. a FIFO pushed past capacity)
/// and aborts. Always on — these guard "impossible by construction"
/// contracts whose violation means memory corruption is next.
[[noreturn]] void fatal_misuse(const char* what, const char* file, int line);

}  // namespace ccastream::rt

/// Runtime-gated invariant check. `lvl` is `cheap` or `full`; the check
/// fires when the scope's cca_check_level() is at or above it. Evaluates
/// `expr` only when enabled, so full-level sweeps can guard O(mesh) work
/// behind their own level test.
#define CCA_CHECK(lvl, expr)                                          \
  do {                                                                \
    if (cca_check_level() >= ::ccastream::rt::CheckLevel::lvl &&      \
        !(expr)) {                                                    \
      ::ccastream::rt::check_failed(#expr, __FILE__, __LINE__);       \
    }                                                                 \
  } while (0)
