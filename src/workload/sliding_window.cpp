#include "workload/sliding_window.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

namespace ccastream::wl {

namespace {

// Pair key; workloads keep vertex ids below 2^32 (same convention as
// wl::simplify).
[[nodiscard]] constexpr std::uint64_t pair_key(std::uint64_t src,
                                               std::uint64_t dst) noexcept {
  return (src << 32) | (dst & 0xFFFF'FFFFull);
}

}  // namespace

StreamSchedule apply_sliding_window(const StreamSchedule& inserts,
                                    std::uint32_t window, bool drain) {
  if (window == 0) return inserts;

  // latest increment each live pair was observed in, plus a representative
  // (src, dst) to build the delete op from.
  struct Lease {
    std::uint64_t last_seen;
    std::uint64_t src;
    std::uint64_t dst;
  };
  std::unordered_map<std::uint64_t, Lease> leases;

  StreamSchedule out;
  out.kind = inserts.kind;
  out.seed_vertex = inserts.seed_vertex;

  const std::uint64_t arrivals = inserts.increments.size();
  const std::uint64_t total =
      drain ? arrivals + window : arrivals;  // trailing delete-only increments
  out.increments.resize(total);

  for (std::uint64_t i = 0; i < total; ++i) {
    auto& inc = out.increments[i];
    // Expirations first (the increment's sub-phase order): every pair whose
    // latest observation was exactly `window` increments ago ages out. The
    // map is small relative to the stream; iterating it per increment keeps
    // the generator simple, and emission order is made deterministic below.
    if (i >= window) {
      const std::uint64_t cutoff = i - window;
      std::vector<std::uint64_t> expired;
      for (const auto& [key, lease] : leases) {
        if (lease.last_seen == cutoff) expired.push_back(key);
      }
      // unordered_map iteration order is not part of the determinism
      // contract; sorted emission is.
      std::sort(expired.begin(), expired.end());
      for (const std::uint64_t key : expired) {
        const Lease lease = leases.at(key);
        inc.push_back(make_delete_edge(lease.src, lease.dst));
        leases.erase(key);
      }
    }
    if (i < arrivals) {
      for (const StreamEdge& e : inserts.increments[i]) {
        inc.push_back(make_insert_edge(e.src, e.dst, e.weight));
        leases[pair_key(e.src, e.dst)] = Lease{i, e.src, e.dst};
      }
    }
  }
  return out;
}

std::uint32_t resolve_window(std::uint32_t requested) noexcept {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("CCASTREAM_WINDOW")) {
    // strtol so negatives are rejected instead of wrapping; the endptr
    // check rejects trailing garbage ("5O" must warn, not parse as 5).
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 1'000'000) {
      return static_cast<std::uint32_t>(v);
    }
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "ccastream: ignoring out-of-range CCASTREAM_WINDOW '%s' "
                   "(windowing disabled)\n",
                   env);
    }
  }
  return 0;
}

std::vector<StreamEdge> live_edges(const StreamSchedule& sched) {
  std::vector<StreamEdge> live;
  for (const auto& inc : sched.increments) {
    for (const StreamEdge& e : inc) {
      if (!e.is_delete()) continue;
      std::erase_if(live, [&](const StreamEdge& l) {
        return l.src == e.src && l.dst == e.dst;
      });
    }
    for (const StreamEdge& e : inc) {
      if (e.is_delete()) continue;
      live.push_back(make_insert_edge(e.src, e.dst, e.weight));
    }
  }
  return live;
}

}  // namespace ccastream::wl
