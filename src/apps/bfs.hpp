// Asynchronous streaming dynamic BFS — the paper's demonstration
// application (Listings 4 & 5), as the level policy of MonotoneApp
// (apps/monotone.hpp).
//
// bfs-action(v, lvl) lowers v's level if lvl is better and re-diffuses
// lvl+1 along v's edges; streamed edge insertions chain into it through the
// on_edge_inserted hook. Deletion repair: the bfs-unsettle wave follows
// exact level(+1) edges from each deleted tree edge's destination, and
// bfs-resettle re-diffuses every surviving level until monotone diffusion
// restores the exact BFS fixed point of the post-increment graph.
#pragma once

#include <cstdint>

#include "apps/monotone.hpp"

namespace ccastream::apps {

class StreamingBfs : public MonotoneApp {
 public:
  /// Sentinel "no valid BFS level" (the paper's max-level).
  static constexpr rt::Word kUnreached = ~0ull;
  /// App word that stores the level.
  static constexpr std::size_t kLevelWord = 0;

  /// Registers app.bfs, app.bfs-unsettle and app.bfs-resettle.
  explicit StreamingBfs(graph::GraphProtocol& protocol)
      : MonotoneApp(protocol, {.name = "bfs",
                               .word = kLevelWord,
                               .unsettled = kUnreached,
                               .step = EdgeStep::kPlusOne,
                               .seed = SeedWhen::kExactPlusOne,
                               .reset = ResetTo::kUnsettled}) {}

  /// Initial app state for fragments (level = unreached).
  [[nodiscard]] static graph::AppState initial_state() {
    graph::AppState s{};
    s[kLevelWord] = kUnreached;
    return s;
  }

  /// Marks `vid` as the BFS source (level 0) before streaming starts.
  void set_source(graph::StreamingGraph& g, std::uint64_t vid) const {
    seed(g, vid, 0);
  }

  /// Injects bfs-action(root(vid), 0) — seeds or re-seeds a BFS on a graph
  /// that already has edges. Run the chip afterwards.
  void kick_source(graph::StreamingGraph& g, std::uint64_t vid) const {
    kick(g, vid, 0);
  }

  /// The computed level of a vertex (kUnreached if not reachable).
  [[nodiscard]] rt::Word level_of(const graph::StreamingGraph& g,
                                  std::uint64_t vid) const {
    return value_of(g, vid);
  }
};

}  // namespace ccastream::apps
